"""Experiment runner: build everything from a config and train.

:func:`run_experiment` is the single code path behind every method
(LTH included), every table/figure bench and the examples, so the
reproduction results always exercise the real library API.
:func:`sweep_configs` builds the method x sparsity grids that
:func:`~repro.experiments.queue.run_sweep` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..data import DATASET_SPECS, DataLoader, make_dataset, standard_train_transform
from ..optim import SGD, CosineAnnealingLR
from ..sparse import (
    ADMMPruner,
    DenseMethod,
    GMPSNN,
    LTHSNN,
    NDSNN,
    RigLSNN,
    SETSNN,
    SNIPSNN,
    SparseTrainingMethod,
)
from ..sparse.packaging import build_spec_model
from ..train import (
    CheckpointCallback,
    ConsoleLogger,
    EpochStats,
    Trainer,
    evaluate,
    has_training_state,
    load_training_state,
)
from .config import ExperimentConfig


@dataclass
class ExperimentOutcome:
    """Everything a table/figure needs from one training run."""

    config: ExperimentConfig
    final_accuracy: float
    best_accuracy: float
    final_sparsity: float
    history: List[EpochStats] = field(default_factory=list)

    @property
    def spike_rates(self) -> List[float]:
        return [s.spike_rate for s in self.history]

    @property
    def densities(self) -> List[float]:
        return [s.density for s in self.history]

    @property
    def sparsities(self) -> List[float]:
        return [s.sparsity for s in self.history]


def build_loaders(config: ExperimentConfig, augment: bool = False):
    """Train/test loaders for a config's dataset.

    Each consumer of randomness — augmentation and train-loader
    shuffling — gets its own seed-derived generator (spawned from one
    root ``SeedSequence``), so enabling augmentation never perturbs the
    shuffle order, and sweep workers running under ``--jobs`` reproduce
    the exact single-process streams.
    """
    augment_rng, shuffle_rng = (
        np.random.default_rng(seq)
        for seq in np.random.SeedSequence(config.seed).spawn(2)
    )
    train_set = make_dataset(
        config.dataset,
        train=True,
        num_samples=config.train_samples,
        image_size=config.image_size,
        num_classes=config.num_classes,
        seed=config.seed,
    )
    test_set = make_dataset(
        config.dataset,
        train=False,
        num_samples=config.test_samples,
        image_size=config.image_size,
        num_classes=config.num_classes,
        seed=config.seed,
    )
    transform = standard_train_transform(padding=2, rng=augment_rng) if augment else None
    train_loader = DataLoader(
        train_set, batch_size=config.batch_size, shuffle=True,
        transform=transform, rng=shuffle_rng,
    )
    test_loader = DataLoader(test_set, batch_size=config.batch_size, shuffle=False)
    return train_loader, test_loader, train_set


def spec_from_config(config: ExperimentConfig) -> Dict:
    """Model spec for a config: the one config -> model geometry mapping.

    Class count, resolution and channels resolve from the dataset spec
    exactly as :func:`~repro.data.make_dataset` resolves them, so a
    config that leaves ``num_classes`` or ``image_size`` unset gets the
    dataset's own.  Training, checkpoint serving, ``repro export`` and
    the package loader all build from this spec through
    :func:`~repro.sparse.packaging.build_spec_model`.
    """
    data = DATASET_SPECS[config.dataset].scaled(config.image_size, config.num_classes)
    kwargs = dict(
        num_classes=data.num_classes,
        in_channels=data.in_channels,
        image_size=data.image_size,
        timesteps=config.timesteps,
    )
    if config.model != "convnet":
        kwargs["width_mult"] = config.width_mult
    return {
        "model": config.model,
        "kwargs": kwargs,
        "encoder": config.encoder,
        "seed": config.seed,
    }


def build_experiment_model(config: ExperimentConfig, dataset=None):
    """Model instance for a config, built from :func:`spec_from_config`.

    ``dataset`` only cross-checks geometry: a dataset whose class
    count, resolution or channels differ from the config's raises
    ``ValueError``.
    """
    spec = spec_from_config(config)
    if dataset is not None:
        kwargs = spec["kwargs"]
        expected = (kwargs["num_classes"], kwargs["image_size"], kwargs["in_channels"])
        actual = (dataset.num_classes, dataset.spec.image_size, dataset.spec.in_channels)
        if actual != expected:
            raise ValueError(
                f"dataset geometry (classes, image size, channels) {actual} "
                f"does not match the config's {expected}"
            )
    return build_spec_model(spec)


def iterations_per_epoch(config: ExperimentConfig) -> int:
    """Number of optimizer steps per epoch under a config's loader."""
    return max(1, (config.train_samples + config.batch_size - 1) // config.batch_size)


def build_method(config: ExperimentConfig, total_iterations: int) -> SparseTrainingMethod:
    """Instantiate the sparse-training method named in the config."""
    rng = np.random.default_rng(config.seed + 3)
    name = config.method
    if name == "dense":
        return DenseMethod()
    if name == "ndsnn":
        return NDSNN(
            initial_sparsity=config.initial_sparsity,
            final_sparsity=config.sparsity,
            total_iterations=total_iterations,
            update_frequency=config.update_frequency,
            initial_death_rate=config.initial_death_rate,
            minimum_death_rate=config.minimum_death_rate,
            distribution=config.distribution,
            growth_mode=config.growth_mode,
            ramp_power=config.ramp_power,
            rng=rng,
        )
    if name == "set":
        return SETSNN(
            sparsity=config.sparsity,
            total_iterations=total_iterations,
            update_frequency=config.update_frequency,
            prune_rate=config.set_prune_rate,
            distribution=config.distribution,
            rng=rng,
        )
    if name == "rigl":
        return RigLSNN(
            sparsity=config.sparsity,
            total_iterations=total_iterations,
            update_frequency=config.update_frequency,
            alpha=config.rigl_alpha,
            stop_fraction=config.rigl_stop_fraction,
            distribution=config.distribution,
            rng=rng,
        )
    if name == "gmp":
        return GMPSNN(
            initial_sparsity=0.0,
            final_sparsity=config.sparsity,
            total_iterations=total_iterations,
            update_frequency=config.update_frequency,
            distribution=config.distribution,
            ramp_power=config.ramp_power,
            rng=rng,
        )
    if name == "snip":
        return SNIPSNN(sparsity=config.sparsity, rng=rng)
    if name == "admm":
        return ADMMPruner(
            sparsity=config.sparsity,
            total_iterations=total_iterations,
            admm_fraction=config.admm_fraction,
            rho=config.admm_rho,
            update_frequency=config.update_frequency,
            distribution=config.distribution,
            rng=rng,
        )
    raise ValueError(f"unknown method {name!r} ('lth' is a round loop inside run_experiment)")


def _build_trainer(
    config: ExperimentConfig, model, method: SparseTrainingMethod, train_loader, test_loader
) -> Trainer:
    """SGD, cosine schedule and trainer for one ``config.epochs`` fit.

    Binds ``method`` to the model and calibrates its execution mode.
    """
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    scheduler = CosineAnnealingLR(optimizer, t_max=max(1, config.epochs))
    trainer = Trainer(
        model,
        method,
        optimizer,
        train_loader,
        test_loader=test_loader,
        scheduler=scheduler,
    )
    method.set_execution(config.execution, calibrate=True)
    return trainer


def run_experiment(
    config: ExperimentConfig,
    verbose: bool = False,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    resume: bool = True,
    extra_callbacks: Optional[Sequence] = None,
) -> ExperimentOutcome:
    """Train ``config.method`` per the config; returns accuracy and traces.

    With ``checkpoint_path`` set, the complete training state is saved
    every ``checkpoint_every`` epochs, and (if ``resume`` and a
    checkpoint exists) the run continues from the last saved epoch
    boundary instead of epoch zero.  Because the checkpoint restores
    every RNG stream, optimizer buffer and schedule position, the
    resumed run is bit-identical to an uninterrupted one — this is the
    contract the sweep queue's crash-recovery is built on.

    ``lth`` is iterative magnitude pruning: ``config.lth_rounds``
    train/prune/rewind rounds of ``config.epochs`` each, and the
    history concatenates every round's epochs, which is the honest
    accounting for LTH's training cost (Fig. 5).  The round loop has no
    mid-run checkpoint seam, so LTH ignores ``checkpoint_path`` and
    ``resume`` (a re-claimed queue job recomputes it deterministically
    from scratch); ``extra_callbacks`` attach to every round's trainer.
    ``verbose`` adds a :class:`~repro.train.hooks.ConsoleLogger` after
    them: one line per epoch trained.
    """
    observers = list(extra_callbacks or ())
    if verbose:
        observers.append(ConsoleLogger())
    train_loader, test_loader, train_set = build_loaders(config)
    model = build_experiment_model(config, train_set)
    if config.method == "lth":
        controller = LTHSNN(
            model,
            target_sparsity=config.sparsity,
            rounds=config.lth_rounds,
            rng=np.random.default_rng(config.seed + 3),
        )
        history: List[EpochStats] = []
        best_accuracy = 0.0
        for round_index in range(1, config.lth_rounds + 1):
            trainer = _build_trainer(
                config, model, controller.method_for_round(round_index),
                train_loader, test_loader,
            )
            for callback in observers:
                trainer.add_callback(callback)
            result = trainer.fit(config.epochs)
            history.extend(result.history)
            best_accuracy = max(best_accuracy, result.best_accuracy)
            controller.prune(round_index)
            if round_index < config.lth_rounds:
                controller.rewind()
        # Final mask applied to the trained weights for evaluation.
        for name, parameter in controller.parameters.items():
            parameter.data *= controller.masks[name]
        return ExperimentOutcome(
            config=config,
            final_accuracy=evaluate(model, test_loader),
            best_accuracy=best_accuracy,
            final_sparsity=controller.current_sparsity(),
            history=history,
        )

    total_iterations = iterations_per_epoch(config) * config.epochs
    trainer = _build_trainer(
        config, model, build_method(config, total_iterations), train_loader, test_loader
    )
    start_epoch = 0
    initial_history: List[EpochStats] = []
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        if resume and has_training_state(checkpoint_path):
            try:
                metadata = load_training_state(checkpoint_path, trainer)
                start_epoch = int(metadata["epochs_completed"])
                initial_history = [
                    EpochStats(**entry) for entry in metadata.get("history", [])
                ]
            except Exception:
                # A torn or mismatched checkpoint (e.g. two claimants
                # raced the save) must cost a recompute, not the job;
                # a partial load may have touched anything, so rebuild
                # everything and start fresh over the checkpoint.
                return run_experiment(
                    config, verbose, checkpoint_path, checkpoint_every,
                    resume=False, extra_callbacks=extra_callbacks,
                )
        trainer.add_callback(CheckpointCallback(checkpoint_path, every=checkpoint_every))
    for callback in observers:
        trainer.add_callback(callback)
    result = trainer.fit(
        config.epochs, start_epoch=start_epoch, initial_history=initial_history
    )
    return ExperimentOutcome(
        config=config,
        final_accuracy=result.final_accuracy,
        best_accuracy=result.best_accuracy,
        final_sparsity=trainer.method.sparsity(),
        history=result.history,
    )


def sweep_configs(
    base: ExperimentConfig,
    methods: Sequence[str],
    sparsities: Optional[Sequence[float]] = None,
) -> List[ExperimentConfig]:
    """Cross a base config with a method (and optional sparsity) grid."""
    configs = []
    for method in methods:
        for sparsity in sparsities if sparsities else (base.sparsity,):
            configs.append(base.scaled(method=method, sparsity=sparsity))
    return configs

