"""Training-cost model (paper Section IV-C, Fig. 5).

The paper evaluates training efficiency by normalizing spike activity:
since computation only happens where there is an input spike *and* an
unpruned connection, the relative computation cost of a sparse model at
epoch ``i`` with respect to the dense model is

    cost_i = (R_s^i * density_i) / R_d^i

where ``R_s^i`` / ``R_d^i`` are the average spike rates of the sparse /
dense model at epoch ``i`` and ``density_i`` is the fraction of
non-zero weights.  (The paper's text writes "Sparsity_i"; the semantics
— pruned connections cost nothing — require the non-zero fraction, so
we use density and note the discrepancy in DESIGN.md.)

The total normalized training cost of a run is the sum of its per-epoch
costs divided by the dense run's epoch count; LTH runs concatenate the
epochs of all prune-rewind-retrain rounds, which is exactly why its
cost is high.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class CostBreakdown:
    """Per-epoch and total relative training cost of one method."""

    method: str
    per_epoch: List[float]
    total_relative_to_dense: float

    @property
    def percent_of_dense(self) -> float:
        return 100.0 * self.total_relative_to_dense


def epoch_costs(
    spike_rates: Sequence[float],
    densities: Sequence[float],
    dense_spike_rates: Sequence[float],
) -> List[float]:
    """Per-epoch cost ``R_s^i * density_i / R_d^i``.

    If the sparse run has more epochs than the dense reference (LTH
    rounds), dense rates are cycled; if fewer, extra dense epochs are
    ignored.
    """
    if len(spike_rates) != len(densities):
        raise ValueError("spike_rates and densities must have equal length")
    if not dense_spike_rates:
        raise ValueError("dense reference must be non-empty")
    costs = []
    for index, (rate, density) in enumerate(zip(spike_rates, densities)):
        reference = dense_spike_rates[index % len(dense_spike_rates)]
        if reference <= 0:
            raise ValueError(f"dense spike rate at epoch {index} must be positive")
        costs.append(rate * density / reference)
    return costs


def relative_training_cost(
    spike_rates: Sequence[float],
    densities: Sequence[float],
    dense_spike_rates: Sequence[float],
    method: str = "sparse",
) -> CostBreakdown:
    """Total training cost of a run, normalized to the dense run.

    The dense baseline has per-epoch cost 1 by construction, so its
    total equals its epoch count; a sparse run's total is the sum of
    its per-epoch costs (over however many epochs it trains, which for
    LTH includes every round).
    """
    per_epoch = epoch_costs(spike_rates, densities, dense_spike_rates)
    total = sum(per_epoch) / len(dense_spike_rates)
    return CostBreakdown(method=method, per_epoch=per_epoch, total_relative_to_dense=total)


def training_flops_estimate(
    connections_per_epoch: Sequence[float], timesteps: int, samples_per_epoch: int
) -> float:
    """Rough FLOPs proxy: active connections x timesteps x samples x 3.

    The factor 3 counts forward, input-gradient and weight-gradient
    passes of BPTT.  Used by the initial-sparsity ablation (Table III's
    "training FLOPs" discussion).
    """
    if timesteps < 1 or samples_per_epoch < 1:
        raise ValueError("timesteps and samples_per_epoch must be >= 1")
    return float(sum(connections_per_epoch)) * timesteps * samples_per_epoch * 3.0
