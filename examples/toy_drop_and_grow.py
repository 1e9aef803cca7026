"""Fig. 3 walkthrough: the NDSNN drop-and-grow mechanics on a toy net.

Reproduces the paper's toy example structure — a 3-layer network whose
masks are updated every dT steps — and prints the mask evolution round
by round: per-layer sparsity, the number of weights dropped (neuron
death) and grown (neuron birth), and the Eq. 4/5 schedule values that
produced those counts.

Run this file with ``python``; it takes no arguments.
"""

import numpy as np

from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import NDSNN
from repro.tensor import Tensor, cross_entropy


def main() -> None:
    rng = np.random.default_rng(0)
    # A three-weight-matrix model, like the paper's W1/W2/W3 toy figure.
    model = SpikingMLP(in_features=12, num_classes=2, hidden=(8, 6), timesteps=2, rng=rng)

    delta_t = 5
    method = NDSNN(
        initial_sparsity=0.5,
        final_sparsity=0.8,
        total_iterations=30,
        update_frequency=delta_t,
        initial_death_rate=0.5,
        minimum_death_rate=0.05,
        rng=np.random.default_rng(1),
    )
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    method.bind(model, optimizer)

    print("Layer shapes:", {n: p.shape for n, p in method.masks.parameters.items()})
    print(f"Initial sparsity distribution (ERK @ theta_i=0.5):")
    for name, sparsity in method.sparsity_distribution().items():
        print(f"  {name:20s} {sparsity:.3f}")
    print()

    data_rng = np.random.default_rng(2)
    for iteration in range(30):
        x = Tensor(data_rng.standard_normal((4, 12)).astype(np.float32))
        y = data_rng.integers(0, 2, 4)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)

        if iteration % delta_t == 0 and method.history and method.history[-1].iteration == iteration:
            record = method.history[-1]
            print(
                f"t={iteration:2d}  round {len(method.history)}: "
                f"death rate d_t={record.death_rate:.3f}  "
                f"dropped {record.total_dropped:3d}  grown {record.total_grown:3d}  "
                f"-> sparsity {record.sparsity_after:.3f}"
            )

    print()
    print("Final sparsity distribution (ERK @ theta_f=0.8):")
    for name, sparsity in method.sparsity_distribution().items():
        print(f"  {name:20s} {sparsity:.3f}")
    print()
    print("Observations (match Fig. 2b/Fig. 3):")
    drops = [record.total_dropped for record in method.history]
    grows = [record.total_grown for record in method.history]
    print(f"  every round drops >= grows: {all(d >= g for d, g in zip(drops, grows))}")
    trace = [record.sparsity_after for record in method.history]
    print(f"  sparsity never decreases : {all(b >= a for a, b in zip(trace, trace[1:]))}")


if __name__ == "__main__":
    main()
