"""Quickstart: train a sparse spiking network with NDSNN in ~30 seconds.

This walks the core API end to end:

1. build a synthetic CIFAR-10 stand-in dataset,
2. build a spiking convnet (LIF neurons, surrogate-gradient BPTT),
3. attach the NDSNN drop-and-grow sparse trainer (paper Algorithm 1),
4. switch the masked layers to ``auto`` execution, so each layer takes
   the CSR fast path once its measured density drops below 25%,
5. train, and watch sparsity ramp from 50% to 90% while accuracy climbs.

Run:  python examples/quickstart.py

The CLI equivalent of steps 1-4 is::

    python -m repro run --method ndsnn --sparsity 0.9 --execution auto
"""

import numpy as np

from repro.data import DataLoader, make_dataset
from repro.optim import SGD, CosineAnnealingLR
from repro.snn.models import SpikingConvNet
from repro.sparse import NDSNN
from repro.train import ConsoleLogger, Trainer


def main() -> None:
    seed = 0
    epochs = 8
    batch_size = 32

    # 1. Data: a deterministic synthetic stand-in for CIFAR-10
    # (3x16x16, 10 classes) — see DESIGN.md for the substitution notes.
    train_set = make_dataset("cifar10", train=True, num_samples=256, image_size=16, seed=seed)
    test_set = make_dataset("cifar10", train=False, num_samples=128, image_size=16, seed=seed)
    train_loader = DataLoader(
        train_set, batch_size=batch_size, shuffle=True, rng=np.random.default_rng(seed)
    )
    test_loader = DataLoader(test_set, batch_size=batch_size, shuffle=False)

    # 2. Model: a small spiking convnet, T=4 timesteps, LIF neurons with
    # the paper's fast-inverse surrogate gradient (Eq. 3).
    model = SpikingConvNet(
        num_classes=10,
        image_size=16,
        channels=(16, 32),
        timesteps=4,
        rng=np.random.default_rng(seed),
    )
    print(f"model parameters: {model.count_parameters():,}")

    # 3. NDSNN: ramp sparsity 50% -> 90% with cosine-annealed drop rate,
    # growing new connections where gradients are largest.
    iterations = len(train_loader) * epochs
    method = NDSNN(
        initial_sparsity=0.5,
        final_sparsity=0.9,
        total_iterations=iterations,
        update_frequency=8,
        rng=np.random.default_rng(seed + 1),
    )

    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)

    # 4. Execution mode: constructing the Trainer binds the method to
    # the model, after which ``auto`` routes any layer below 25%
    # measured density through the cached-CSR kernels (identical
    # results to dense execution, just faster at high sparsity; the
    # same knob is ``--execution {dense,auto,csr}`` on the CLI).
    trainer = Trainer(
        model, method, optimizer, train_loader, test_loader=test_loader, scheduler=scheduler,
        callbacks=[ConsoleLogger()],
    )
    method.set_execution("auto")

    # 5. Train.
    result = trainer.fit(epochs)

    print()
    print(f"final test accuracy : {result.final_accuracy:.3f}")
    print(f"final sparsity      : {method.sparsity():.3f}")
    print(f"drop-and-grow rounds: {len(method.history)}")
    total_dropped = sum(record.total_dropped for record in method.history)
    total_grown = sum(record.total_grown for record in method.history)
    print(f"connections dropped : {total_dropped:,}  grown: {total_grown:,}")
    print("per-layer sparsity  :")
    for name, sparsity in method.sparsity_distribution().items():
        print(f"  {name:30s} {sparsity:.3f}")


if __name__ == "__main__":
    main()
