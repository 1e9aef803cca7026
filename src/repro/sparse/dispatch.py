"""Measured per-shape dispatch calibration for ``auto`` execution.

The fixed density threshold that historically drove dense-vs-CSR
dispatch is a single number for every layer shape, but the real
crossover moves with the matrix geometry (BLAS tile efficiency, cache
footprint, scipy kernel overhead).  This module measures it: for a
given 2-D weight shape it times the dense masked matmul against the
CSR kernel over a grid of density buckets and derives the highest
density at which CSR still wins with a safety margin.

Determinism contract
--------------------
Measured timings differ run to run, but the *dispatch decisions* of a
training run must be reproducible — the sweep queue's crash-resume and
local-vs-queue bit-identity tests compare results byte for byte.  Two
mechanisms guarantee it:

* **Shared write-once cache.**  When ``REPRO_CALIBRATION_DIR`` is set
  (the test suite and the sweep queue do so), the first process to
  calibrate a shape publishes its cutoff by hard-linking a fully
  written temp file to the shared name (``os.link`` fails if the name
  exists, and readers never see a partial file); every later
  measurement of that shape — in this process or any other sharing the
  directory — adopts the published value instead of its own timing.
* **Checkpoint persistence.**  A training checkpoint stores the run's
  calibration table (see ``repro.train.checkpoint``), and a resumed run
  restores it verbatim, overriding anything freshly measured.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..utils import publish_once
from .storage import CSRPattern

#: Environment variable naming a directory for the shared write-once
#: calibration cache.  Unset → per-process memory cache only.
CALIBRATION_ENV = "REPRO_CALIBRATION_DIR"

#: Density buckets measured per shape, ascending.  The derived cutoff
#: is the largest *prefix* of winning buckets, so one noisy win at high
#: density cannot drag losing densities onto the CSR path.
DENSITY_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50)

#: CSR must beat dense by this factor at a bucket to count as a win;
#: absorbs timing noise and the (amortized) write-through refresh cost.
WIN_MARGIN = 1.10

#: Batch (columns of the dense operand) used for calibration timings —
#: representative of the reproduction's training batches.
CALIBRATION_BATCH = 32

#: ``auto`` density cutoff of a shape no :class:`CalibrationTable` has
#: measured.  Conservative: ``BENCH_kernels.json`` shows CSR is a
#: *slowdown* at 50% density and only clearly ahead below ~15–20%.
STATIC_CSR_DENSITY_CUTOFF = 0.15

_PROCESS_CACHE: Dict[Tuple[Optional[str], int, int], float] = {}


def matrix_shape(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Reduce a weight-tensor shape to the paper's 2-D convention."""
    if len(shape) == 2:
        return (int(shape[0]), int(shape[1]))
    return (int(shape[0]), int(np.prod(shape[1:])))


def measure_crossover(
    rows: int,
    cols: int,
    batch: int = CALIBRATION_BATCH,
    repeats: int = 3,
    grid: Iterable[float] = DENSITY_GRID,
    seed: int = 0,
) -> Dict[str, float]:
    """Time dense vs CSR at each density bucket for one shape.

    Returns ``{"cutoff": float, "buckets": {density: speedup}}`` where
    ``cutoff`` is the highest grid density such that CSR beats dense
    (by :data:`WIN_MARGIN`) at it *and every sparser bucket*.  A shape
    where CSR never wins gets cutoff 0.0 (always dense).

    Uses a private RNG and ``time.perf_counter`` only — calibration
    must never perturb a training run's random streams.
    """
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((rows, cols)).astype(np.float32)
    x = rng.standard_normal((cols, batch)).astype(np.float32)
    total = rows * cols

    def best_of(fn) -> float:
        fn()  # warm-up
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    buckets: Dict[float, float] = {}
    cutoff = 0.0
    prefix_winning = True
    for density in sorted(grid):
        keep = max(1, int(round(density * total)))
        mask_flat = np.zeros(total, dtype=np.float32)
        mask_flat[rng.choice(total, size=keep, replace=False)] = 1.0
        mask = mask_flat.reshape(rows, cols)
        masked = weight * mask
        pattern = CSRPattern.from_mask(mask)
        values = pattern.gather(masked)
        dense_s = best_of(lambda: masked @ x)
        csr_s = best_of(lambda: pattern.matmul(values, x))
        speedup = dense_s / csr_s if csr_s > 0 else 0.0
        buckets[density] = speedup
        if prefix_winning and speedup >= WIN_MARGIN:
            cutoff = density
        else:
            prefix_winning = False
    return {"cutoff": cutoff, "buckets": buckets}


def _cache_dir() -> Optional[str]:
    return os.environ.get(CALIBRATION_ENV) or None


def _cache_path(directory: str, rows: int, cols: int) -> str:
    return os.path.join(directory, f"calibration-{rows}x{cols}.json")


def _read_cutoff(path: str) -> float:
    """The cutoff published at ``path``; a torn file is a named error."""
    with open(path) as handle:
        text = handle.read()
    try:
        return float(json.loads(text)["cutoff"])
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"corrupt calibration cache file {path}: {error}") from None


def _publish(directory: str, rows: int, cols: int, measured: Dict) -> float:
    """Write-once publish (:func:`~repro.utils.publish_once`); on
    collision adopt the winner's cutoff, and keep our own when the
    directory is unwritable."""
    path = _cache_path(directory, rows, cols)
    payload = {
        "rows": rows,
        "cols": cols,
        "cutoff": float(measured["cutoff"]),
        "buckets": {f"{d:.2f}": float(s) for d, s in measured["buckets"].items()},
    }
    try:
        published = publish_once(path, payload)
    except OSError:
        return float(measured["cutoff"])  # unwritable dir: keep our own
    return float(measured["cutoff"]) if published else _read_cutoff(path)


def get_cutoff(rows: int, cols: int, measure=measure_crossover) -> float:
    """Calibrated density cutoff for one 2-D shape (cached).

    Lookup order: process memory cache → shared on-disk cache
    (:data:`CALIBRATION_ENV`) → fresh measurement, which is then
    published write-once so concurrent processes converge on a single
    value.  ``measure`` is injectable for tests.
    """
    directory = _cache_dir()
    key = (directory, int(rows), int(cols))
    cached = _PROCESS_CACHE.get(key)
    if cached is not None:
        return cached
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
        path = _cache_path(directory, rows, cols)
        if os.path.exists(path):
            cutoff = _read_cutoff(path)
            _PROCESS_CACHE[key] = cutoff
            return cutoff
    measured = measure(rows, cols)
    if directory is not None:
        cutoff = _publish(directory, rows, cols, measured)
    else:
        cutoff = float(measured["cutoff"])
    _PROCESS_CACHE[key] = cutoff
    return cutoff


def clear_process_cache() -> None:
    """Forget memoized cutoffs (tests that re-point the cache dir)."""
    _PROCESS_CACHE.clear()


class CalibrationTable:
    """Per-shape measured density cutoffs driving ``auto`` dispatch.

    Maps a reduced 2-D weight shape to the highest density at which the
    CSR kernels are worth taking on this machine.  Layers whose shape
    is absent fall back to the static
    :data:`STATIC_CSR_DENSITY_CUTOFF`.
    """

    def __init__(self, cutoffs: Optional[Dict[Tuple[int, int], float]] = None) -> None:
        self.cutoffs: Dict[Tuple[int, int], float] = dict(cutoffs or {})

    def __len__(self) -> int:
        return len(self.cutoffs)

    def cutoff_for(self, shape: Tuple[int, ...]) -> Optional[float]:
        """Cutoff for a weight shape (any rank), or None if unmeasured."""
        return self.cutoffs.get(matrix_shape(shape))

    def calibrate_shapes(self, shapes: Iterable[Tuple[int, ...]], measure=measure_crossover) -> "CalibrationTable":
        """Measure (or look up) every shape; idempotent, chainable."""
        for shape in shapes:
            rows, cols = matrix_shape(shape)
            if (rows, cols) not in self.cutoffs:
                self.cutoffs[(rows, cols)] = get_cutoff(rows, cols, measure=measure)
        return self

    # -- checkpoint round-trip -----------------------------------------
    def to_meta(self) -> Dict[str, float]:
        """JSON-able form, keys ``"<rows>x<cols>"``."""
        return {f"{r}x{c}": float(v) for (r, c), v in sorted(self.cutoffs.items())}

    @classmethod
    def from_meta(cls, meta: Optional[Dict[str, float]]) -> Optional["CalibrationTable"]:
        if not meta:
            return None
        cutoffs = {}
        for key, value in meta.items():
            rows, cols = key.split("x")
            cutoffs[(int(rows), int(cols))] = float(value)
        return cls(cutoffs)

    def __repr__(self) -> str:
        entries = ", ".join(f"{r}x{c}:{v:.2f}" for (r, c), v in sorted(self.cutoffs.items()))
        return f"CalibrationTable({entries})"
