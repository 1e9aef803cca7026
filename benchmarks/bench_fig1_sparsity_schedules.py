"""Fig. 1 reproduction: sparsity-vs-epoch curves of the three
sparsification families on VGG-16/CIFAR-10.

Paper shape:
* train-prune-retrain (ADMM): sparsity is 0 for the dense phase, then
  jumps to the target (orange curve);
* iterative pruning (LTH): sparsity rises in steps across rounds,
  spending many early epochs near-dense (blue curve);
* NDSNN: starts already sparse and ramps to the target (green curve),
  so its *average training sparsity* is far higher than both.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import ascii_plot, format_table

from _profiles import PROFILE, profile_config


def _trace(method: str, sparsity: float = 0.95):
    config = profile_config("cifar10", "vgg16", method, sparsity)
    outcome = run_experiment(config)
    return [stats.sparsity for stats in outcome.history]


def _run_fig1():
    return {
        "admm (train-prune-retrain)": _trace("admm"),
        "lth (iterative pruning)": _trace("lth"),
        "ndsnn (ours)": _trace("ndsnn"),
    }


def test_fig1_sparsity_schedules(benchmark):
    traces = benchmark.pedantic(_run_fig1, rounds=1, iterations=1)
    print()
    print(ascii_plot(traces, title="Fig. 1: training sparsity vs epoch (VGG-16/CIFAR-10)"))
    averages = {name: sum(t) / len(t) for name, t in traces.items()}
    print(
        format_table(
            ["method", "avg_training_sparsity", "final_sparsity"],
            [(name, averages[name], trace[-1]) for name, trace in traces.items()],
        )
    )
    ndsnn = traces["ndsnn (ours)"]
    lth = traces["lth (iterative pruning)"]
    admm = traces["admm (train-prune-retrain)"]
    # Shape checks, exactly the paper's grey-area argument:
    # 1. NDSNN trains sparse from epoch 0.
    assert ndsnn[0] > 0.4
    # 2. ADMM's dense phase has zero sparsity.
    assert admm[0] == 0.0
    # 3. LTH round 1 is dense.
    assert lth[0] == 0.0
    # 4. NDSNN's average training sparsity dominates both baselines.
    assert averages["ndsnn (ours)"] > averages["lth (iterative pruning)"]
    assert averages["ndsnn (ours)"] > averages["admm (train-prune-retrain)"]
    # 5. NDSNN sparsity is non-decreasing (connections only die off).
    assert all(b >= a - 1e-9 for a, b in zip(ndsnn, ndsnn[1:]))
