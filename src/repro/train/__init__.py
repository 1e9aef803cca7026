"""Training harness: hook-based trainer, metrics, cost/memory models."""

from .checkpoint import (
    CheckpointCallback,
    has_training_state,
    load_checkpoint,
    load_training_state,
    restore_manager,
    save_checkpoint,
    save_training_state,
)
from .hooks import (
    CallbackList,
    ConsoleLogger,
    MethodCallback,
    TopologyAudit,
    TrainerCallback,
)
from .faults import (
    FaultInjectionCallback,
    inject_bit_flips,
    inject_dead_neurons,
    inject_weight_dropout,
    inject_weight_noise,
    restore,
)
from .logging import read_history_csv, write_history_csv, write_history_json
from .cost import (
    CostAccountingCallback,
    CostBreakdown,
    dense_reference_cost,
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
from .metrics import AverageMeter, confusion_matrix, evaluate, top_k_accuracy
from .trainer import EpochStats, Trainer, TrainingResult

__all__ = [
    "save_checkpoint",
    "CheckpointCallback",
    "save_training_state",
    "load_training_state",
    "restore_manager",
    "has_training_state",
    "TrainerCallback",
    "CallbackList",
    "MethodCallback",
    "ConsoleLogger",
    "TopologyAudit",
    "FaultInjectionCallback",
    "CostAccountingCallback",
    "inject_weight_noise",
    "inject_weight_dropout",
    "inject_bit_flips",
    "inject_dead_neurons",
    "restore",
    "write_history_csv",
    "read_history_csv",
    "write_history_json",
    "load_checkpoint",
    "Trainer",
    "TrainingResult",
    "EpochStats",
    "AverageMeter",
    "evaluate",
    "confusion_matrix",
    "top_k_accuracy",
    "CostBreakdown",
    "epoch_costs",
    "relative_training_cost",
    "dense_reference_cost",
    "training_flops_estimate",
    "FootprintReport",
    "training_footprint_bits",
    "dense_training_footprint_bits",
    "inference_footprint_bits",
    "model_footprint",
    "average_training_footprint_bits",
    "PLATFORM_WEIGHT_BITS",
]
