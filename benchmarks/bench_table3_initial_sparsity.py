"""Table III reproduction: effect of the initial sparsity theta_i on
final accuracy (NDSNN design-space exploration, paper §IV-D-1).

Paper shape: accuracy is fairly flat across theta_i in {0.5..0.9}; mid
values (0.6-0.8) are a good accuracy/cost trade-off, which is why the
paper picks from that range.  Lower theta_i also means higher average
density, i.e. more training FLOPs — both are reported here.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import format_table
from repro.train import training_flops_estimate

from _profiles import PROFILE, profile_config

INITIAL_SPARSITIES = (0.5, 0.6, 0.7, 0.8, 0.9) if __import__("os").environ.get("REPRO_BENCH_FULL") else (0.5, 0.7, 0.9)
TARGETS = (0.95, 0.98)


def _run_table3(model: str, dataset: str):
    rows = []
    accuracies = {}
    for target in TARGETS:
        for theta_i in INITIAL_SPARSITIES:
            outcome = run_experiment(
                profile_config(dataset, model, "ndsnn", target, initial_sparsity=theta_i)
            )
            # FLOPs proxy from the per-epoch density trace.
            total_weights = 1.0  # relative units: density trace is enough
            flops = training_flops_estimate(
                [d * total_weights for d in outcome.densities],
                timesteps=PROFILE.timesteps,
                samples_per_epoch=PROFILE.train_samples,
            )
            rows.append((f"{target:.2f}", f"{theta_i:.1f}", outcome.final_accuracy, flops))
            accuracies[(target, theta_i)] = outcome.final_accuracy
    return rows, accuracies


@pytest.mark.parametrize("model,dataset", [("vgg16", "cifar10"), ("resnet19", "cifar100")])
def test_table3_initial_sparsity(benchmark, model, dataset):
    rows, accuracies = benchmark.pedantic(
        lambda: _run_table3(model, dataset), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["target", "initial_sparsity", "test_acc", "train_flops(rel)"],
            rows,
            title=f"Table III: initial-sparsity ablation, {model} on {dataset}",
        )
    )
    # Shape check 1: lower theta_i never *reduces* training FLOPs.
    for target in TARGETS:
        flops = [row[3] for row in rows if row[0] == f"{target:.2f}"]
        assert all(b <= a + 1e-6 for a, b in zip(flops, flops[1:])), (
            "FLOPs should decrease as initial sparsity rises"
        )
    # Shape check 2 (soft): the accuracy spread across theta_i is bounded —
    # the paper's point is that the knob is forgiving.
    for target in TARGETS:
        values = [accuracies[(target, theta)] for theta in INITIAL_SPARSITIES]
        assert max(values) - min(values) < 0.5
