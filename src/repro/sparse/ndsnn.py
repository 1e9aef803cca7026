"""NDSNN: Neurogenesis Dynamics-inspired sparse training (the paper's
primary contribution, Algorithm 1).

The method trains from scratch at high sparsity and *increases*
sparsity over time through an asymmetric drop-and-grow schedule:

* every ``update_frequency`` (``dT``) iterations, layer ``l`` drops the
  ``D_q^l = d_t * N_pre`` active weights of least magnitude — *neuron
  death* — where ``d_t`` follows the cosine schedule of Eq. 5;
* it then grows ``G_q^l = N^l - N_post^l - theta_t^l * N^l`` connections
  at the inactive positions with the largest gradient magnitude —
  *neuron birth* (Eq. 9) — where ``theta_t^l`` is the cubic sparsity
  ramp of Eq. 4.

Because ``G < D`` while the ramp is rising, the live-connection count
decays from the ERK distribution at ``theta_i`` to the ERK distribution
at ``theta_f``, mirroring the declining neuron population of adult
hippocampal neurogenesis.

Implemented as a thin strategy over the shared
:class:`~repro.sparse.engine.DropGrowMethod` engine, which builds the
Eq. 4 ramp from ``theta_i`` to ``theta_f`` and caches its per-layer
targets each round: this class only supplies the Eq. 5 death rate, the
Eq. 6–9 death/birth counts and the growth scores.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .engine import DropGrowMethod, UpdateRecord
from .schedule import CosineDeathSchedule

__all__ = ["NDSNN", "UpdateRecord"]


class NDSNN(DropGrowMethod):
    """Drop-and-grow sparse training with decreasing connection count.

    Parameters
    ----------
    initial_sparsity:
        Global sparsity ``theta_i`` at the start of training (paper uses
        0.5–0.9; §IV-D picks from {0.6, 0.7, 0.8}).
    final_sparsity:
        Target global sparsity ``theta_f`` (0.9–0.99 in Table I).
    total_iterations:
        Length of the training run ``T_end`` in iterations.
    update_frequency:
        ``dT``; a drop-and-grow round runs every this many iterations.
    initial_death_rate / minimum_death_rate:
        Endpoints ``d0`` and ``d_min`` of the Eq. 5 cosine schedule.
    stop_fraction:
        Fraction of ``total_iterations`` after which topology freezes
        (the ramp horizon ``n*dT``); 1.0 reproduces the paper.
    distribution:
        Per-layer sparsity allocation (``erk`` as in the paper, or
        ``uniform``).
    growth_mode:
        ``gradient`` (paper / RigL-style), ``random`` or ``momentum``
        — exposed for the ablation bench.
    ramp_power:
        Exponent of Eq. 4 (3.0 in the paper; ablation knob).
    """

    name = "ndsnn"
    ramped = True

    def __init__(
        self,
        initial_sparsity: float = 0.8,
        final_sparsity: float = 0.95,
        total_iterations: int = 1000,
        update_frequency: int = 100,
        initial_death_rate: float = 0.5,
        minimum_death_rate: float = 0.05,
        stop_fraction: float = 1.0,
        distribution: str = "erk",
        growth_mode: str = "gradient",
        ramp_power: float = 3.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= initial_sparsity <= final_sparsity < 1.0:
            raise ValueError(
                f"need 0 <= theta_i <= theta_f < 1, got {initial_sparsity}, {final_sparsity}"
            )
        if growth_mode not in ("gradient", "random", "momentum"):
            raise ValueError(f"unknown growth mode {growth_mode!r}")
        super().__init__(
            total_iterations=total_iterations,
            update_frequency=update_frequency,
            stop_fraction=stop_fraction,
            distribution=distribution,
            rng=rng,
        )
        self.initial_sparsity = float(initial_sparsity)
        self.final_sparsity = float(final_sparsity)
        self.initial_death_rate = float(initial_death_rate)
        self.minimum_death_rate = float(minimum_death_rate)
        self.growth_mode = growth_mode
        self.ramp_power = float(ramp_power)
        self.death_schedule: Optional[CosineDeathSchedule] = None

    # ------------------------------------------------------------------
    # Per-round strategy (Eqs. 5–9)
    # ------------------------------------------------------------------
    def configure_schedules(self) -> None:
        self.death_schedule = CosineDeathSchedule(
            self.initial_death_rate,
            self.minimum_death_rate,
            num_rounds=self.num_rounds,
            update_frequency=self.update_frequency,
        )

    def round_death_rate(self, iteration: int) -> float:
        return self.death_schedule.rate_at(iteration)  # Eq. 5

    def drop_count(self, name: str, iteration: int) -> int:
        n_pre = self.masks.nonzero_count(name)  # Eq. 6
        drop = int(self.round_death_rate(iteration) * n_pre)  # Eq. 7
        # Never drop below the target active count: the sparsity ramp
        # dominates when the cosine death rate gets small (Eq. 9 must
        # yield G >= 0).
        drop = max(drop, n_pre - self.target_active(name))
        return min(drop, max(0, n_pre - 1))

    def grow_count(self, name: str, iteration: int, dropped: int) -> int:
        n_post = self.masks.nonzero_count(name)  # Eq. 8
        return self.target_active(name) - n_post  # Eq. 9

    def growth_scores(self, name: str) -> np.ndarray:
        parameter = self.masks.parameters[name]
        if self.growth_mode == "gradient":
            if parameter.grad is None:
                raise RuntimeError(
                    "gradient growth requires gradients; call backward() first"
                )
            return np.abs(parameter.grad)
        if self.growth_mode == "momentum":
            buffer = None
            get_state = getattr(self.optimizer, "state_for", None)
            if get_state is not None:
                buffer = get_state(parameter)
            if buffer is None:
                buffer = parameter.grad if parameter.grad is not None else np.zeros(parameter.shape)
            return np.abs(buffer)
        # random growth: a random permutation as scores
        return self.masks.rng.random(parameter.shape)

    def __repr__(self) -> str:
        return (
            f"NDSNN(theta_i={self.initial_sparsity}, theta_f={self.final_sparsity}, "
            f"dT={self.update_frequency}, d0={self.initial_death_rate}, "
            f"growth={self.growth_mode!r})"
        )
