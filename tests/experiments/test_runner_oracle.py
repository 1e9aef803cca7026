"""Runner oracle: the one experiment runner against the per-method runners.

The functions below are frozen copies of ``build_experiment_model``,
``run_experiment`` (minus its checkpoint seam, unused here) and the
separate LTH runner as the experiments package once wrote them, when
LTH had a runner of its own and every runner built its optimizer,
scheduler and trainer by hand.  Each config runs through both the
reference and the library runner, and final and best accuracy, final
sparsity and every epoch's stats must agree bit for bit.
"""

import numpy as np
import pytest

from repro.experiments import (
    build_loaders,
    build_method,
    iterations_per_epoch,
    run_experiment,
    scaled_config,
)
from repro.optim import SGD, CosineAnnealingLR
from repro.snn.encoding import build_encoder
from repro.snn.models import build_model
from repro.sparse import LTHSNN
from repro.train import Trainer
from repro.train.metrics import evaluate

pytestmark = pytest.mark.smoke

FAST = dict(
    epochs=2, train_samples=32, test_samples=16, timesteps=2,
    image_size=8, batch_size=16, update_frequency=1,
)


def reference_build_model(config, dataset=None):
    if dataset is not None:
        num_classes = dataset.num_classes
        image_size = dataset.spec.image_size
        in_channels = dataset.spec.in_channels
    else:
        num_classes = config.num_classes or 10
        image_size = config.image_size or 32
        in_channels = 3
    rng = np.random.default_rng(config.seed + 2)
    kwargs = dict(
        num_classes=num_classes,
        in_channels=in_channels,
        image_size=image_size,
        timesteps=config.timesteps,
        rng=rng,
    )
    if config.model != "convnet":
        kwargs["width_mult"] = config.width_mult
    model = build_model(config.model, **kwargs)
    if config.encoder != "direct":
        encoder_kwargs = {}
        if config.encoder == "poisson":
            encoder_kwargs["rng"] = np.random.default_rng(config.seed + 4)
        model.encoder = build_encoder(config.encoder, config.timesteps, **encoder_kwargs)
    return model


def reference_run_experiment(config):
    total_iterations = iterations_per_epoch(config) * config.epochs
    train_loader, test_loader, train_set = build_loaders(config)
    model = reference_build_model(config, train_set)
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    scheduler = CosineAnnealingLR(optimizer, t_max=max(1, config.epochs))
    method = build_method(config, total_iterations)
    trainer = Trainer(
        model, method, optimizer, train_loader,
        test_loader=test_loader, scheduler=scheduler,
    )
    method.set_execution(config.execution, calibrate=True)
    result = trainer.fit(config.epochs)
    return dict(
        final_accuracy=result.final_accuracy,
        best_accuracy=result.best_accuracy,
        final_sparsity=method.sparsity(),
        history=[stats.as_dict() for stats in result.history],
    )


def reference_lth_rounds(config):
    rounds = config.lth_rounds
    epochs_per_round = config.epochs
    train_loader, test_loader, train_set = build_loaders(config)
    model = reference_build_model(config, train_set)
    controller = LTHSNN(
        model,
        target_sparsity=config.sparsity,
        rounds=rounds,
        rng=np.random.default_rng(config.seed + 3),
    )
    history = []
    final_accuracy = 0.0
    best_accuracy = 0.0
    for round_index in range(1, rounds + 1):
        method = controller.method_for_round(round_index)
        optimizer = SGD(
            model.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        scheduler = CosineAnnealingLR(optimizer, t_max=max(1, epochs_per_round))
        trainer = Trainer(
            model, method, optimizer, train_loader,
            test_loader=test_loader, scheduler=scheduler,
        )
        method.set_execution(config.execution, calibrate=True)
        result = trainer.fit(epochs_per_round)
        history.extend(stats.as_dict() for stats in result.history)
        final_accuracy = result.final_accuracy
        best_accuracy = max(best_accuracy, result.best_accuracy)
        controller.prune(round_index)
        if round_index < rounds:
            controller.rewind()
        else:
            for name, parameter in controller.parameters.items():
                parameter.data *= controller.masks[name]
            final_accuracy = evaluate(model, test_loader)
    return dict(
        final_accuracy=final_accuracy,
        best_accuracy=best_accuracy,
        final_sparsity=controller.current_sparsity(),
        history=history,
    )


CASES = {
    "dense": scaled_config("cifar10", "convnet", "dense", 0.9, **FAST),
    "ndsnn": scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST, initial_sparsity=0.5),
    "admm": scaled_config("cifar10", "convnet", "admm", 0.9, **FAST),
    "lth": scaled_config("cifar10", "convnet", "lth", 0.9, **FAST, lth_rounds=2),
    "ndsnn-poisson": scaled_config(
        "cifar10", "convnet", "ndsnn", 0.9, **FAST, initial_sparsity=0.5, encoder="poisson"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runner_matches_reference(case):
    config = CASES[case]
    reference = (
        reference_lth_rounds if config.method == "lth" else reference_run_experiment
    )(config)
    outcome = run_experiment(config)
    assert outcome.final_accuracy == reference["final_accuracy"]
    assert outcome.best_accuracy == reference["best_accuracy"]
    assert outcome.final_sparsity == reference["final_sparsity"]
    assert [stats.as_dict() for stats in outcome.history] == reference["history"]
    if config.method == "lth":
        assert len(outcome.history) == config.lth_rounds * config.epochs
