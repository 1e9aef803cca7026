"""Ablation benches for the design choices called out in DESIGN.md:

* growth criterion (gradient = paper, random = SET-style, momentum),
* surrogate gradient function (fast-inverse = paper Eq. 3, atan, triangle),
* sparsity-ramp exponent (cubic = paper Eq. 4, quadratic, linear).

These are not paper tables; they document which ingredients the NDSNN
result depends on.
"""

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.experiments.tables import format_table
from repro.snn.models import build_model
from repro.optim import SGD, CosineAnnealingLR
from repro.sparse import NDSNN
from repro.train import Trainer
from repro.data import DataLoader, make_dataset

from _profiles import PROFILE, profile_config

SPARSITY = 0.95


def test_ablation_growth_mode(benchmark):
    def run():
        results = {}
        for mode in ("gradient", "random", "momentum"):
            outcome = run_experiment(
                profile_config("cifar10", "vgg16", "ndsnn", SPARSITY, growth_mode=mode)
            )
            results[mode] = outcome.final_accuracy
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["growth_mode", "test_acc"],
            sorted(results.items()),
            title=f"Ablation: NDSNN growth criterion (VGG-16/CIFAR-10 @ {SPARSITY:.0%})",
        )
    )
    assert all(0.0 <= value <= 1.0 for value in results.values())


def test_ablation_ramp_power(benchmark):
    def run():
        results = {}
        for power in (1.0, 2.0, 3.0):
            outcome = run_experiment(
                profile_config("cifar10", "vgg16", "ndsnn", SPARSITY, ramp_power=power)
            )
            results[power] = (outcome.final_accuracy, float(np.mean(outcome.densities)))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(f"power={p:.0f}", acc, dens) for p, (acc, dens) in sorted(results.items())]
    print()
    print(
        format_table(
            ["ramp", "test_acc", "avg_density"],
            rows,
            title="Ablation: Eq. 4 sparsity-ramp exponent",
        )
    )
    # Higher exponent sparsifies faster -> lower average density (cost).
    densities = [results[p][1] for p in (1.0, 2.0, 3.0)]
    assert densities[0] >= densities[1] >= densities[2] - 1e-6


def _train_with_surrogate(surrogate: str):
    config = profile_config("cifar10", "vgg16", "ndsnn", SPARSITY)
    rng = np.random.default_rng(config.seed)
    train = make_dataset("cifar10", train=True, num_samples=config.train_samples,
                         image_size=config.image_size, seed=config.seed)
    test = make_dataset("cifar10", train=False, num_samples=config.test_samples,
                        image_size=config.image_size, seed=config.seed)
    train_loader = DataLoader(train, batch_size=config.batch_size, shuffle=True, rng=rng)
    test_loader = DataLoader(test, batch_size=config.batch_size, shuffle=False)
    model = build_model(
        "vgg16", num_classes=10, image_size=config.image_size,
        timesteps=config.timesteps, width_mult=config.width_mult,
        surrogate=surrogate, rng=np.random.default_rng(config.seed + 2),
    )
    optimizer = SGD(model.parameters(), lr=config.learning_rate, momentum=0.9, weight_decay=5e-4)
    scheduler = CosineAnnealingLR(optimizer, t_max=config.epochs)
    iterations = (config.train_samples // config.batch_size) * config.epochs
    method = NDSNN(
        initial_sparsity=config.initial_sparsity, final_sparsity=SPARSITY,
        total_iterations=iterations, update_frequency=config.update_frequency,
        rng=np.random.default_rng(config.seed + 3),
    )
    trainer = Trainer(model, method, optimizer, train_loader, test_loader=test_loader,
                      scheduler=scheduler)
    return trainer.fit(config.epochs).final_accuracy


def test_ablation_surrogate(benchmark):
    def run():
        return {name: _train_with_surrogate(name) for name in ("fast_inverse", "atan", "triangle")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["surrogate", "test_acc"],
            sorted(results.items()),
            title="Ablation: surrogate gradient (Eq. 3 vs alternatives)",
        )
    )
    assert all(0.0 <= value <= 1.0 for value in results.values())
