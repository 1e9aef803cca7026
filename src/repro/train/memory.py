"""Memory-footprint model (paper Section III-D).

For a sparse model with sparsity ``theta``, ``N`` total weights,
timestep count ``t`` and word sizes ``b_w`` (weights/gradients) and
``b_idx`` (sparse indices), the training memory footprint in bits is

    (1 - theta) * ((1 + t) * N * b_w + N * b_idx) + sum_l (F_l + 1) * b_idx

using CSR storage: each of the ``(1-theta) N`` non-zeros stores one
weight, ``t`` gradient copies (one per BPTT timestep) and one column
index; each of the ``F_l`` filter rows stores one row-pointer.  The
paper's approximation drops the row-pointer term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..nn.module import Module
from ..sparse.engine import sparsifiable_parameters

#: Inference weight precisions of the platforms cited in Section III-D.
PLATFORM_WEIGHT_BITS: Dict[str, int] = {
    "loihi": 8,        # Intel Loihi neuromorphic chip
    "hicann": 4,       # HICANN mixed-signal wafer design
    "fpga_low": 4,     # SyncNN-style FPGA, low precision
    "fpga_high": 16,   # SyncNN-style FPGA, high precision
    "gpu_fp32": 32,
}


@dataclass
class FootprintReport:
    """Bits (and bytes) of a model + gradients under a sparsity level."""

    sparsity: float
    timesteps: int
    total_weights: int
    weight_bits: int
    index_bits: int
    bits: float

    @property
    def bytes(self) -> float:
        return self.bits / 8.0

    @property
    def megabytes(self) -> float:
        return self.bytes / (1024.0 ** 2)


def training_footprint_bits(
    total_weights: int,
    sparsity: float,
    timesteps: int,
    weight_bits: int = 32,
    index_bits: int = 32,
    filters_per_layer: Optional[Sequence[int]] = None,
) -> float:
    """Exact Section III-D training footprint in bits.

    ``filters_per_layer`` supplies the CSR row-pointer term
    ``sum_l (F_l + 1) * b_idx``; omit it for the paper's approximation.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    if total_weights < 0 or timesteps < 0:
        raise ValueError("total_weights and timesteps must be non-negative")
    density = 1.0 - sparsity
    bits = density * ((1 + timesteps) * total_weights * weight_bits + total_weights * index_bits)
    if filters_per_layer is not None:
        bits += sum(f + 1 for f in filters_per_layer) * index_bits
    return float(bits)


def dense_training_footprint_bits(
    total_weights: int, timesteps: int, weight_bits: int = 32
) -> float:
    """Dense reference: weights + t gradient copies, no index overhead."""
    return float((1 + timesteps) * total_weights * weight_bits)


def inference_footprint_bits(
    total_weights: int,
    sparsity: float,
    platform: str = "loihi",
    index_bits: int = 32,
    filters_per_layer: Optional[Sequence[int]] = None,
) -> float:
    """Deployed-model footprint at a platform's weight precision."""
    try:
        weight_bits = PLATFORM_WEIGHT_BITS[platform]
    except KeyError:
        raise ValueError(
            f"unknown platform {platform!r}; available: {sorted(PLATFORM_WEIGHT_BITS)}"
        ) from None
    density = 1.0 - sparsity
    bits = density * total_weights * (weight_bits + index_bits)
    if filters_per_layer is not None:
        bits += sum(f + 1 for f in filters_per_layer) * index_bits
    return float(bits)


def model_footprint(
    model: Module,
    sparsity: float,
    timesteps: int,
    weight_bits: int = 32,
    index_bits: int = 32,
    exact: bool = True,
) -> FootprintReport:
    """Footprint of a concrete model at a hypothetical sparsity."""
    parameters = sparsifiable_parameters(model)
    total = sum(p.size for _, p in parameters)
    filters = [p.shape[0] for _, p in parameters] if exact else None
    bits = training_footprint_bits(
        total,
        sparsity,
        timesteps,
        weight_bits=weight_bits,
        index_bits=index_bits,
        filters_per_layer=filters,
    )
    return FootprintReport(
        sparsity=sparsity,
        timesteps=timesteps,
        total_weights=total,
        weight_bits=weight_bits,
        index_bits=index_bits,
        bits=bits,
    )


def average_training_footprint_bits(
    total_weights: int,
    sparsity_trace: Sequence[float],
    timesteps: int,
    weight_bits: int = 32,
    index_bits: int = 32,
) -> float:
    """Mean footprint over a training run's per-epoch sparsity trace.

    This is the quantity that favours NDSNN: its trace is sparse from
    epoch 0, while train-prune-retrain spends most epochs dense.
    """
    if not sparsity_trace:
        raise ValueError("sparsity trace must be non-empty")
    footprints = [
        training_footprint_bits(
            total_weights, s, timesteps, weight_bits=weight_bits, index_bits=index_bits
        )
        for s in sparsity_trace
    ]
    return float(sum(footprints) / len(footprints))
