"""Sparsity and death-ratio schedules (paper Eqs. 4 and 5).

Two schedules drive NDSNN:

* :class:`SparsityRamp` — Eq. 4, the per-layer *training sparsity*
  ramps from the initial distribution ``theta_i`` to the final
  distribution ``theta_f`` along a cubic curve, so the model spends
  most of training already very sparse (the green curve of Fig. 1).

* :class:`CosineDeathSchedule` — Eq. 5, the *death ratio* (fraction of
  active weights dropped at each update round) anneals from ``d0`` to
  ``d_min`` with a half cosine, mirroring SGDR-style annealing.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping


class SparsityRamp:
    """Paper Eq. 4: cubic interpolation between two sparsity levels.

    ``theta(t) = theta_f + (theta_i - theta_f) * (1 - (t - t0)/(n*dT))^p``

    with ``p = 3`` in the paper (``power`` exposes the ablation knob).
    Outside the ramp window the schedule clamps to its endpoints.
    """

    def __init__(
        self,
        initial_sparsity: float,
        final_sparsity: float,
        t_start: int,
        num_rounds: int,
        update_frequency: int,
        power: float = 3.0,
    ) -> None:
        if not 0.0 <= initial_sparsity <= final_sparsity < 1.0:
            raise ValueError(
                "need 0 <= initial_sparsity <= final_sparsity < 1, got "
                f"{initial_sparsity} and {final_sparsity}"
            )
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if update_frequency < 1:
            raise ValueError("update_frequency must be >= 1")
        self.initial_sparsity = float(initial_sparsity)
        self.final_sparsity = float(final_sparsity)
        self.t_start = int(t_start)
        self.num_rounds = int(num_rounds)
        self.update_frequency = int(update_frequency)
        self.power = float(power)

    @property
    def t_end(self) -> int:
        """Iteration at which the ramp reaches the final sparsity."""
        return self.t_start + self.num_rounds * self.update_frequency

    def sparsity_at(self, iteration: int) -> float:
        """Training sparsity at ``iteration`` (clamped outside the ramp)."""
        if iteration <= self.t_start:
            return self.initial_sparsity
        if iteration >= self.t_end:
            return self.final_sparsity
        progress = (iteration - self.t_start) / (self.num_rounds * self.update_frequency)
        gap = self.initial_sparsity - self.final_sparsity
        return self.final_sparsity + gap * (1.0 - progress) ** self.power

    def __call__(self, iteration: int) -> float:
        return self.sparsity_at(iteration)

    def __repr__(self) -> str:
        return (
            f"SparsityRamp({self.initial_sparsity:.2f} -> {self.final_sparsity:.2f}, "
            f"rounds={self.num_rounds}, dT={self.update_frequency}, power={self.power})"
        )


class LayerwiseSparsityRamp:
    """Eq. 4 applied per layer, between two sparsity *distributions*.

    The initial and final distributions normally come from ERK at the
    global ``theta_i`` and ``theta_f`` respectively (paper §III-C step 1,
    "following the same scaling proportion distribution").
    """

    def __init__(
        self,
        initial: Mapping[str, float],
        final: Mapping[str, float],
        t_start: int,
        num_rounds: int,
        update_frequency: int,
        power: float = 3.0,
    ) -> None:
        if set(initial) != set(final):
            raise ValueError("initial/final distributions cover different layers")
        self.ramps: Dict[str, SparsityRamp] = {}
        for name in initial:
            init_s = min(initial[name], final[name])
            self.ramps[name] = SparsityRamp(
                init_s,
                final[name],
                t_start=t_start,
                num_rounds=num_rounds,
                update_frequency=update_frequency,
                power=power,
            )

    def sparsity_at(self, iteration: int) -> Dict[str, float]:
        """Per-layer sparsity targets at ``iteration``."""
        return {name: ramp.sparsity_at(iteration) for name, ramp in self.ramps.items()}

    def __getitem__(self, name: str) -> SparsityRamp:
        return self.ramps[name]


class CosineDeathSchedule:
    """Paper Eq. 5: cosine-annealed death (drop) ratio.

    ``d(t) = d_min + 0.5 (d0 - d_min) (1 + cos(pi t / (n dT)))``

    At ``t = 0`` the ratio is ``d0``; at ``t = n*dT`` it reaches
    ``d_min`` and stays there.
    """

    def __init__(
        self,
        initial_rate: float,
        minimum_rate: float,
        num_rounds: int,
        update_frequency: int,
    ) -> None:
        if not 0.0 <= minimum_rate <= initial_rate <= 1.0:
            raise ValueError(
                f"need 0 <= d_min <= d0 <= 1, got d0={initial_rate}, d_min={minimum_rate}"
            )
        self.initial_rate = float(initial_rate)
        self.minimum_rate = float(minimum_rate)
        self.num_rounds = int(num_rounds)
        self.update_frequency = int(update_frequency)

    def rate_at(self, iteration: int) -> float:
        """Death ratio ``d_t`` at a training iteration (clamped)."""
        horizon = self.num_rounds * self.update_frequency
        if iteration <= 0:
            return self.initial_rate
        if iteration >= horizon:
            return self.minimum_rate
        cosine = math.cos(math.pi * iteration / horizon)
        return self.minimum_rate + 0.5 * (self.initial_rate - self.minimum_rate) * (1.0 + cosine)

    def __call__(self, iteration: int) -> float:
        return self.rate_at(iteration)

    def __repr__(self) -> str:
        return (
            f"CosineDeathSchedule(d0={self.initial_rate}, d_min={self.minimum_rate}, "
            f"rounds={self.num_rounds}, dT={self.update_frequency})"
        )

