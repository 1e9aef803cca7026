"""Table II reproduction: ADMM pruning (LeNet-5) vs NDSNN (VGG-16) at
low-to-moderate sparsity (40/50/60/75%) on CIFAR-10.

Paper shape: NDSNN's accuracy loss relative to its own dense baseline
stays near zero through 75% sparsity, while ADMM's loss grows
noticeably past ~50%.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import format_table

from _profiles import PROFILE, profile_config

SPARSITIES = (0.4, 0.5, 0.6, 0.75)


def _run_table2():
    results = {"admm": {}, "ndsnn": {}}
    dense = {}
    dense["lenet5"] = run_experiment(
        profile_config("cifar10", "lenet5", "dense", 0.5, width_mult=1.0)
    ).final_accuracy
    dense["vgg16"] = run_experiment(
        profile_config("cifar10", "vgg16", "dense", 0.5)
    ).final_accuracy
    for sparsity in SPARSITIES:
        admm = run_experiment(
            profile_config("cifar10", "lenet5", "admm", sparsity, width_mult=1.0)
        )
        results["admm"][sparsity] = admm.final_accuracy
        ndsnn = run_experiment(
            profile_config(
                "cifar10", "vgg16", "ndsnn", sparsity,
                initial_sparsity=min(0.3, sparsity / 2),
            )
        )
        results["ndsnn"][sparsity] = ndsnn.final_accuracy
    return results, dense


def test_table2_admm_comparison(benchmark):
    results, dense = benchmark.pedantic(_run_table2, rounds=1, iterations=1)
    rows = []
    for sparsity in SPARSITIES:
        rows.append((
            f"{sparsity:.0%}",
            results["admm"][sparsity],
            results["admm"][sparsity] - dense["lenet5"],
            results["ndsnn"][sparsity],
            results["ndsnn"][sparsity] - dense["vgg16"],
        ))
    print()
    print(
        format_table(
            ["sparsity", "ADMM(LeNet-5)", "ADMM loss", "NDSNN(VGG-16)", "NDSNN loss"],
            rows,
            title=f"Table II: ADMM vs NDSNN on CIFAR-10 "
            f"(dense LeNet-5 {dense['lenet5']:.2f}, dense VGG-16 {dense['vgg16']:.2f})",
        )
    )
    # Shape check: NDSNN's mean accuracy loss across the sweep should not
    # be (much) worse than ADMM's — the paper reports near-zero loss.
    ndsnn_loss = sum(dense["vgg16"] - results["ndsnn"][s] for s in SPARSITIES) / len(SPARSITIES)
    admm_loss = sum(dense["lenet5"] - results["admm"][s] for s in SPARSITIES) / len(SPARSITIES)
    assert ndsnn_loss <= admm_loss + 0.15, (
        f"NDSNN mean loss {ndsnn_loss:.3f} far exceeds ADMM {admm_loss:.3f}"
    )
