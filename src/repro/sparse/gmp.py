"""Gradual Magnitude Pruning (GMP) — extension baseline.

Zhu & Gupta (2017): sparsity rises from 0 to the target along the same
cubic ramp as Eq. 4 but with *no regrowth* — weights are pruned by
magnitude at each update step and never return.  Including it isolates
the value of NDSNN's grow step: GMP shares the ramp, NDSNN adds
gradient-guided regrowth.

A thin strategy over :class:`~repro.sparse.engine.DropGrowMethod`,
which builds the ramp and caches its per-layer targets: GMP drops each
layer to its target and grows nothing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .engine import DropGrowMethod


class GMPSNN(DropGrowMethod):
    """Cubic-ramp magnitude pruning without regrowth.

    Parameters mirror :class:`~repro.sparse.ndsnn.NDSNN` minus the
    death/growth knobs.
    """

    name = "gmp"
    ramped = True

    def __init__(
        self,
        initial_sparsity: float = 0.0,
        final_sparsity: float = 0.9,
        total_iterations: int = 1000,
        update_frequency: int = 100,
        stop_fraction: float = 1.0,
        distribution: str = "erk",
        ramp_power: float = 3.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= initial_sparsity <= final_sparsity < 1.0:
            raise ValueError(
                f"need 0 <= theta_i <= theta_f < 1, got {initial_sparsity}, {final_sparsity}"
            )
        super().__init__(
            total_iterations=total_iterations,
            update_frequency=update_frequency,
            stop_fraction=stop_fraction,
            distribution=distribution,
            rng=rng,
        )
        self.initial_sparsity = float(initial_sparsity)
        self.final_sparsity = float(final_sparsity)
        self.ramp_power = float(ramp_power)

    def initial_densities(self) -> Optional[Dict[str, float]]:
        if self.initial_sparsity > 0:
            return super().initial_densities()
        return None  # start dense

    def drop_count(self, name: str, iteration: int) -> int:
        return self.masks.nonzero_count(name) - self.target_active(name)

    def grow_count(self, name: str, iteration: int, dropped: int) -> int:
        return 0  # pruned weights never return

    def __repr__(self) -> str:
        return f"GMPSNN(theta_f={self.final_sparsity}, dT={self.update_frequency})"
