"""Experiment configs and runners behind every table/figure bench."""

from .config import SCALED_IMAGE_SIZE, SCALED_NUM_CLASSES, ExperimentConfig, scaled_config
from .queue import (
    ClaimedJob,
    JobQueue,
    QueueStatus,
    QueueWorker,
    job_id_for,
    manifest_to_outcome,
    outcome_to_manifest,
    run_sweep,
)
from .runner import (
    ExperimentOutcome,
    build_experiment_model,
    build_loaders,
    build_method,
    iterations_per_epoch,
    run_experiment,
    sweep_configs,
)

__all__ = [
    "ExperimentConfig",
    "scaled_config",
    "SCALED_NUM_CLASSES",
    "SCALED_IMAGE_SIZE",
    "ExperimentOutcome",
    "run_experiment",
    "run_sweep",
    "sweep_configs",
    "build_loaders",
    "build_experiment_model",
    "build_method",
    "iterations_per_epoch",
    "JobQueue",
    "QueueWorker",
    "QueueStatus",
    "ClaimedJob",
    "job_id_for",
    "outcome_to_manifest",
    "manifest_to_outcome",
]
