"""Table I reproduction: test accuracy of Dense / LTH-SNN / SET-SNN /
RigL-SNN / NDSNN on VGG-16 and ResNet-19 across sparsity levels.

Paper shape to reproduce (CPU-scale): NDSNN is competitive with or
better than the dynamic-sparse baselines, and the gap to the
train-dense-then-prune family (LTH) widens as sparsity approaches 99%.
Absolute numbers differ (synthetic data, scaled models; see DESIGN.md).
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import format_table

from _profiles import PROFILE, profile_config

DATASETS = ("cifar10", "cifar100", "tiny_imagenet")
MODELS = ("vgg16", "resnet19")
METHODS = ("lth", "set", "rigl", "ndsnn")


def _run_cells(model: str, dataset: str):
    """One (model, dataset) block of Table I: dense + all methods x sparsities."""
    rows = []
    dense = run_experiment(profile_config(dataset, model, "dense", 0.9))
    rows.append(("dense", "-", dense.final_accuracy, 0.0))
    results = {}
    for method in METHODS:
        for sparsity in PROFILE.sparsities:
            outcome = run_experiment(profile_config(dataset, model, method, sparsity))
            rows.append((method, f"{sparsity:.0%}", outcome.final_accuracy, outcome.final_sparsity))
            results[(method, sparsity)] = outcome.final_accuracy
    return rows, results, dense.final_accuracy


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_table1_block(benchmark, model, dataset):
    rows, results, dense_accuracy = benchmark.pedantic(
        lambda: _run_cells(model, dataset), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["method", "sparsity", "test_acc", "achieved_sparsity"],
            rows,
            title=f"Table I block: {model} on {dataset} "
            f"(T={PROFILE.timesteps}, {PROFILE.train_samples} samples)",
        )
    )
    # Structural checks: every sparse method must actually hit its target.
    for (method, sparsity), _ in results.items():
        row = [r for r in rows if r[0] == method and r[1] == f"{sparsity:.0%}"][0]
        assert abs(row[3] - sparsity) < 0.05, f"{method} missed target sparsity {sparsity}"
    # Shape check (soft): at the extreme 99% level, NDSNN should not be
    # dominated by both constant-sparsity baselines simultaneously by a
    # wide margin — its ramp trains denser for most of the run.
    ndsnn_99 = results[("ndsnn", PROFILE.sparsities[-1])]
    set_99 = results[("set", PROFILE.sparsities[-1])]
    rigl_99 = results[("rigl", PROFILE.sparsities[-1])]
    assert ndsnn_99 >= min(set_99, rigl_99) - 0.15, (
        f"NDSNN collapsed at 99%: {ndsnn_99} vs SET {set_99} / RigL {rigl_99}"
    )
