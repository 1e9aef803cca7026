"""Fig. 5 reproduction: normalized training cost of Dense / LTH / NDSNN
on CIFAR-10 and CIFAR-100 with VGG-16 and ResNet-19.

Cost model (paper §IV-C): cost_i = R_s^i * density_i / R_d^i summed over
all training epochs (LTH pays for every round), normalized to the dense
run.  Paper shape: NDSNN trains for a small fraction of the dense cost
(~10-30%) and well under half of LTH's.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import format_table
from repro.train import relative_training_cost

from _profiles import PROFILE, profile_config

COMBOS = (
    ("vgg16", "cifar10"),
    ("resnet19", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet19", "cifar100"),
)

SPARSITY = 0.95


def _run_combo(model: str, dataset: str):
    dense = run_experiment(profile_config(dataset, model, "dense", SPARSITY))
    dense_rates = dense.spike_rates
    costs = {"dense": 100.0}

    lth = run_experiment(profile_config(dataset, model, "lth", SPARSITY))
    # The paper's Fig. 5 charges LTH for the winning-ticket retrain (the
    # final round); the all-rounds figure is the honest total and is
    # reported alongside.
    per_round = len(dense_rates)
    final_round = slice(-per_round, None)
    costs["lth (final round)"] = relative_training_cost(
        lth.spike_rates[final_round], lth.densities[final_round], dense_rates, method="lth"
    ).percent_of_dense
    costs["lth (all rounds)"] = relative_training_cost(
        lth.spike_rates, lth.densities, dense_rates, method="lth"
    ).percent_of_dense

    ndsnn = run_experiment(profile_config(dataset, model, "ndsnn", SPARSITY))
    costs["ndsnn"] = relative_training_cost(
        ndsnn.spike_rates, ndsnn.densities, dense_rates, method="ndsnn"
    ).percent_of_dense
    return costs


@pytest.mark.parametrize("model,dataset", COMBOS)
def test_fig5_training_cost(benchmark, model, dataset):
    costs = benchmark.pedantic(lambda: _run_combo(model, dataset), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["method", "normalized_training_cost_%"],
            [(name, value) for name, value in costs.items()],
            title=f"Fig. 5 bar group: {model} on {dataset} (sparsity {SPARSITY:.0%})",
        )
    )
    # Shape checks — the core efficiency claim of the paper:
    # 1. NDSNN costs a small fraction of dense training.
    assert costs["ndsnn"] < 60.0, f"NDSNN cost {costs['ndsnn']:.1f}% of dense"
    # 2. NDSNN is cheaper than LTH under either accounting.
    assert costs["ndsnn"] < costs["lth (final round)"]
    assert costs["ndsnn"] < costs["lth (all rounds)"]
    # 3. The all-rounds LTH total exceeds its final-round cost (the
    #    multi-round overhead the paper's Fig. 1 grey area highlights).
    assert costs["lth (all rounds)"] > costs["lth (final round)"]
