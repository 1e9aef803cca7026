"""The learning-rate schedule: cosine annealing, as in the paper ([24])."""

from __future__ import annotations

import math

from .sgd import Optimizer


class CosineAnnealingLR:
    """SGDR-style cosine decay from the base LR to ``eta_min``.

    Call :meth:`step` once per epoch.  ``last_epoch`` is the position a
    checkpoint saves and restores.
    """

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0) -> None:
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = -1
        self.t_max = int(t_max)
        self.eta_min = float(eta_min)

    def get_lr(self, epoch: int) -> float:
        progress = min(epoch, self.t_max) / self.t_max
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (
            1.0 + math.cos(math.pi * progress)
        )

    def step(self) -> float:
        self.last_epoch += 1
        lr = self.get_lr(self.last_epoch)
        self.optimizer.lr = lr
        return lr
