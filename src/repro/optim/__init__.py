"""Optimizers and the learning-rate scheduler."""

from .lr_scheduler import CosineAnnealingLR
from .sgd import SGD, Adam, Optimizer

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "CosineAnnealingLR",
]
