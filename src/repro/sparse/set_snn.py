"""SET-SNN baseline: Sparse Evolutionary Training on spiking networks.

SET (Mocanu et al., Nature Communications 2018) keeps sparsity constant:
every update round it drops a fixed fraction ``zeta`` of the smallest-
magnitude active weights per layer and regrows the *same number* of
connections at random inactive positions.

A thin strategy over :class:`~repro.sparse.engine.DropGrowMethod`:
SET supplies the constant rate ``zeta`` and keeps its own update clock;
the engine's default counts (drop ``zeta * n_active``, regrow as many)
and random growth do the rest.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .engine import DropGrowMethod


class SETSNN(DropGrowMethod):
    """Constant-sparsity drop-and-grow with random regrowth.

    Parameters
    ----------
    sparsity:
        Constant global sparsity maintained throughout training.
    prune_rate:
        Fraction ``zeta`` of active weights replaced per round (SET
        uses a constant rate; 0.3 is the conventional default).
    """

    name = "set"

    def __init__(
        self,
        sparsity: float = 0.9,
        total_iterations: int = 1000,
        update_frequency: int = 100,
        prune_rate: float = 0.3,
        stop_fraction: float = 1.0,
        distribution: str = "erk",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
        if not 0.0 < prune_rate < 1.0:
            raise ValueError(f"prune_rate must be in (0, 1), got {prune_rate}")
        super().__init__(
            total_iterations=total_iterations,
            update_frequency=update_frequency,
            stop_fraction=stop_fraction,
            distribution=distribution,
            rng=rng,
        )
        self.target_sparsity = float(sparsity)
        self.prune_rate = float(prune_rate)

    def _is_update_step(self, iteration: int) -> bool:
        # SET's historical horizon is the raw stop iteration, not the
        # round-quantized (and min-one-round clamped) base-class one:
        # with stop_fraction < update_frequency/total the topology must
        # stay frozen for the whole run.
        horizon = int(self.total_iterations * self.stop_fraction)
        return (
            iteration > 0
            and iteration % self.update_frequency == 0
            and iteration <= horizon
            and iteration < self.total_iterations
        )

    def round_death_rate(self, iteration: int) -> float:
        return self.prune_rate

    def __repr__(self) -> str:
        return f"SETSNN(sparsity={self.target_sparsity}, zeta={self.prune_rate})"
