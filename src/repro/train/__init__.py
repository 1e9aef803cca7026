"""Training harness: trainer and its callbacks, metrics, cost/memory models."""

from .checkpoint import (
    CheckpointCallback,
    has_training_state,
    load_checkpoint,
    load_training_state,
    restore_manager,
    save_checkpoint,
    save_training_state,
)
from .hooks import ConsoleLogger, TrainerCallback
from .logging import write_history_csv
from .cost import (
    CostBreakdown,
    epoch_costs,
    relative_training_cost,
    training_flops_estimate,
)
from .memory import (
    PLATFORM_WEIGHT_BITS,
    FootprintReport,
    average_training_footprint_bits,
    dense_training_footprint_bits,
    inference_footprint_bits,
    model_footprint,
    training_footprint_bits,
)
from .metrics import AverageMeter, evaluate
from .trainer import EpochStats, Trainer, TrainingResult

__all__ = [
    "save_checkpoint",
    "CheckpointCallback",
    "save_training_state",
    "load_training_state",
    "restore_manager",
    "has_training_state",
    "TrainerCallback",
    "ConsoleLogger",
    "write_history_csv",
    "load_checkpoint",
    "Trainer",
    "TrainingResult",
    "EpochStats",
    "AverageMeter",
    "evaluate",
    "CostBreakdown",
    "epoch_costs",
    "relative_training_cost",
    "training_flops_estimate",
    "FootprintReport",
    "training_footprint_bits",
    "dense_training_footprint_bits",
    "inference_footprint_bits",
    "model_footprint",
    "average_training_footprint_bits",
    "PLATFORM_WEIGHT_BITS",
]
