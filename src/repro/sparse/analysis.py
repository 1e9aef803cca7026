"""Topology analysis of sparse masks.

Dynamic sparse training is topology search; these utilities quantify
what the drop-and-grow process discovers — degree distributions, dead
units, and input-to-output connectivity — in the spirit of the analyses
in the SET/RigL literature.  Useful for diagnosing why one growth
criterion beats another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .storage import _as_matrix


@dataclass
class DegreeStats:
    """In/out degree summary of one sparse layer."""

    mean_in: float
    mean_out: float
    std_in: float
    std_out: float
    dead_outputs: int
    dead_inputs: int


def degree_statistics(mask: np.ndarray) -> DegreeStats:
    """Degree statistics of one layer's mask.

    Rows are output units (filters/neurons), columns input connections.
    """
    matrix = _as_matrix(np.asarray(mask))
    out_degree = matrix.sum(axis=1)
    in_degree = matrix.sum(axis=0)
    return DegreeStats(
        mean_in=float(in_degree.mean()),
        mean_out=float(out_degree.mean()),
        std_in=float(in_degree.std()),
        std_out=float(out_degree.std()),
        dead_outputs=int((out_degree == 0).sum()),
        dead_inputs=int((in_degree == 0).sum()),
    )


def input_output_connectivity(masks: Sequence[np.ndarray]) -> float:
    """Fraction of output units reachable from at least one input unit.

    ``masks`` is a chain of layers, each ``(out, in)`` or a conv
    ``(out, in, kh, kw)`` whose units are channels (connected if any
    kernel element between them is active).  Reachability is pushed
    from every input of the first layer one layer at a time; a column
    past the previous layer's width reads from no unit, so it is
    unreachable.  A unit with no active path back to the input can
    never be driven; drop-and-grow should keep this near 1.0.
    """
    if not masks:
        raise ValueError("need at least one mask")
    reachable = np.ones(np.asarray(masks[0]).shape[1], dtype=bool)
    for mask in masks:
        mask = np.asarray(mask)
        if mask.ndim == 4:
            mask = mask.reshape(mask.shape[0], mask.shape[1], -1).max(axis=2)
        width = min(mask.shape[1], reachable.size)
        reachable = (mask[:, :width][:, reachable[:width]] != 0).any(axis=1)
    return float(reachable.sum()) / reachable.size if reachable.size else 0.0


def analyze_masks(masks: Dict[str, np.ndarray]) -> Dict[str, DegreeStats]:
    """Per-layer degree statistics for a whole mask dict."""
    return {name: degree_statistics(mask) for name, mask in masks.items()}


def topology_change(before: Dict[str, np.ndarray], after: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Jaccard-style churn per layer: fraction of active positions changed.

    0.0 means identical topology; 1.0 means completely disjoint.
    """
    out: Dict[str, float] = {}
    for name in before:
        a = np.asarray(before[name]).reshape(-1) > 0
        b = np.asarray(after[name]).reshape(-1) > 0
        union = np.logical_or(a, b).sum()
        if union == 0:
            out[name] = 0.0
            continue
        intersection = np.logical_and(a, b).sum()
        out[name] = 1.0 - intersection / union
    return out
