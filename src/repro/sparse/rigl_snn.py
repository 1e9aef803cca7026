"""RigL-SNN baseline: gradient-guided constant-sparsity training.

RigL (Evci et al., ICML 2020) drops the smallest-magnitude active
weights and regrows the same count at inactive positions with the
largest gradient magnitude, with the update fraction cosine-annealed to
zero over the schedule horizon:

    f(t) = (alpha / 2) * (1 + cos(pi * t / T_horizon))

A thin strategy over :class:`~repro.sparse.engine.DropGrowMethod`:
RigL supplies the cosine update fraction as its rate, gradient
magnitude as its growth scores, and its own update clock; the engine's
default counts (drop ``f(t) * n_active``, regrow as many) do the rest.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .engine import DropGrowMethod


class RigLSNN(DropGrowMethod):
    """Constant-sparsity drop-and-grow with gradient-based regrowth.

    Parameters
    ----------
    sparsity:
        Constant global sparsity maintained throughout training.
    alpha:
        Initial update fraction of the cosine decay (RigL default 0.3).
    stop_fraction:
        Fraction of training after which topology freezes (RigL's
        ``T_end``; the original uses 0.75).
    """

    name = "rigl"

    def __init__(
        self,
        sparsity: float = 0.9,
        total_iterations: int = 1000,
        update_frequency: int = 100,
        alpha: float = 0.3,
        stop_fraction: float = 0.75,
        distribution: str = "erk",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        super().__init__(
            total_iterations=total_iterations,
            update_frequency=update_frequency,
            stop_fraction=stop_fraction,
            distribution=distribution,
            rng=rng,
        )
        self.target_sparsity = float(sparsity)
        self.alpha = float(alpha)

    @property
    def horizon(self) -> int:
        """RigL's ``T_end``: the raw stop iteration (not round-quantized)."""
        return max(1, int(self.total_iterations * self.stop_fraction))

    def update_fraction(self, iteration: int) -> float:
        """Cosine-annealed fraction of connections replaced per round."""
        if iteration >= self.horizon:
            return 0.0
        return (self.alpha / 2.0) * (1.0 + math.cos(math.pi * iteration / self.horizon))

    def _is_update_step(self, iteration: int) -> bool:
        # RigL freezes strictly *at* the horizon, unlike the ramp methods
        # which still update on the horizon iteration itself.
        return (
            iteration > 0
            and iteration % self.update_frequency == 0
            and iteration < self.horizon
        )

    def round_death_rate(self, iteration: int) -> float:
        return self.update_fraction(iteration)

    def growth_scores(self, name: str) -> np.ndarray:
        parameter = self.masks.parameters[name]
        if parameter.grad is None:
            raise RuntimeError("RigL growth requires gradients")
        return np.abs(parameter.grad)

    def __repr__(self) -> str:
        return f"RigLSNN(sparsity={self.target_sparsity}, alpha={self.alpha})"
