"""Watch the sparse topology evolve during NDSNN training.

Uses `repro.sparse.analysis` to track, round by round, what the
drop-and-grow process does to the connectivity graph: degree
statistics, dead units, input-to-output reachability, and the
per-round topology churn.

Run:  python examples/topology_evolution.py
"""

import numpy as np

from repro.experiments.tables import format_table
from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import (
    NDSNN,
    analyze_masks,
    input_output_connectivity,
    topology_change,
)
from repro.tensor import Tensor, cross_entropy


def main() -> None:
    rng = np.random.default_rng(0)
    model = SpikingMLP(in_features=32, num_classes=5, hidden=(48, 32),
                       timesteps=2, rng=rng)
    delta_t = 10
    method = NDSNN(initial_sparsity=0.5, final_sparsity=0.92,
                   total_iterations=120, update_frequency=delta_t,
                   rng=np.random.default_rng(1))
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    method.bind(model, optimizer)

    data_rng = np.random.default_rng(2)
    rows = []
    previous_masks = method.masks.copy_masks()
    for iteration in range(120):
        x = Tensor(data_rng.standard_normal((8, 32)).astype(np.float32))
        y = data_rng.integers(0, 5, 8)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)

        if method.history and method.history[-1].iteration == iteration:
            current = method.masks.copy_masks()
            churn = topology_change(previous_masks, current)
            masks_list = [current[name] for name in current]
            stats = analyze_masks(current)
            rows.append((
                iteration,
                method.masks.sparsity(),
                float(np.mean(list(churn.values()))),
                input_output_connectivity(masks_list),
                sum(s.dead_outputs for s in stats.values()),
            ))
            previous_masks = current

    print(format_table(
        ["iteration", "sparsity", "mean_churn", "in->out connectivity", "dead_units"],
        rows,
        title="NDSNN topology evolution (3-layer spiking MLP, theta 0.50 -> 0.92)",
    ))
    print()
    print("Expected pattern: churn is high early (large cosine death rate)")
    print("and decays; connectivity stays ~1.0 even at 92% sparsity — the")
    print("gradient-guided growth keeps every output reachable.")


if __name__ == "__main__":
    main()
