"""Extension study: unstructured NDSNN vs structured filter pruning.

The paper targets unstructured sparsity (maximum accuracy per removed
weight, needs index storage); structured pruning removes whole filters
(hardware-friendly, no indices, but coarser).  This example trains both
at matched sparsity and compares accuracy and real storage cost using
the CSR pattern from `repro.sparse.storage`.

Run:  python examples/structured_vs_unstructured.py
"""

import numpy as np

from repro.data import DataLoader, make_dataset
from repro.experiments.tables import format_table
from repro.optim import SGD, CosineAnnealingLR
from repro.snn.models import SpikingConvNet
from repro.sparse import NDSNN, CSRPattern, StructuredFilterPruning
from repro.train import ConsoleLogger, Trainer


def train(method, seed=0, epochs=8):
    train_set = make_dataset("cifar10", train=True, num_samples=256, image_size=16, seed=seed)
    test_set = make_dataset("cifar10", train=False, num_samples=128, image_size=16, seed=seed)
    train_loader = DataLoader(
        train_set, batch_size=32, shuffle=True, rng=np.random.default_rng(seed)
    )
    test_loader = DataLoader(test_set, batch_size=32, shuffle=False)
    model = SpikingConvNet(
        num_classes=10, image_size=16, channels=(16, 32), timesteps=4,
        rng=np.random.default_rng(seed),
    )
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)
    trainer = Trainer(model, method, optimizer, train_loader,
                      test_loader=test_loader, scheduler=scheduler,
                      callbacks=[ConsoleLogger()])
    result = trainer.fit(epochs)
    return model, method, result


def storage_kb(method, structured: bool) -> float:
    """Real storage: CSR for unstructured, dense surviving rows for structured."""
    bits = 0
    for name, parameter in method.masks.parameters.items():
        if structured:
            # Structured: store surviving filters densely, no indices.
            mask = method.masks.masks[name]
            alive_rows = int((mask.reshape(mask.shape[0], -1).max(axis=1) > 0).sum())
            bits += alive_rows * (parameter.size // parameter.shape[0]) * 32
        else:
            # Unstructured: CSR values + column indices + row pointers.
            pattern = CSRPattern.from_mask(parameter.data != 0)
            bits += pattern.nnz * 64 + (pattern.shape[0] + 1) * 32
    return bits / 8 / 1024


def main() -> None:
    sparsity = 0.8
    print("=== unstructured NDSNN ===")
    _, unstructured, result_u = train(
        NDSNN(initial_sparsity=0.4, final_sparsity=sparsity,
              total_iterations=64, update_frequency=8,
              rng=np.random.default_rng(1)),
    )
    print()
    print("=== structured filter pruning ===")
    _, structured, result_s = train(
        StructuredFilterPruning(final_sparsity=sparsity,
                                total_iterations=64, update_frequency=8,
                                rng=np.random.default_rng(1)),
    )

    print()
    print(format_table(
        ["scheme", "test_acc", "weight_sparsity", "storage_KB"],
        [
            ("unstructured (NDSNN)", result_u.final_accuracy,
             unstructured.sparsity(), storage_kb(unstructured, structured=False)),
            ("structured (filters)", result_s.final_accuracy,
             structured.sparsity(), storage_kb(structured, structured=True)),
        ],
        title=f"Unstructured vs structured at target sparsity {sparsity:.0%}",
    ))
    print()
    print("Typical outcome: unstructured keeps higher accuracy at equal")
    print("sparsity; structured needs no index storage and maps directly")
    print("onto dense accelerators — the deployment trade-off the paper's")
    print("SIII-D memory analysis quantifies.")


if __name__ == "__main__":
    main()
