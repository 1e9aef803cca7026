"""Sweep-scaling benchmark: the durable job queue vs an in-process sweep.

Times one method-grid sweep through the job queue at several worker
counts, each cell in its own spool directory (so ``jobs=1`` times one
queue worker, not the in-process path), and re-verifies at every cell
that the results are bit-identical to the sequential in-process
reference, ``run_sweep(jobs=1)`` — the guarantee the queue must
preserve while adding durability.  Every cell adopts one shared
dispatch calibration (``REPRO_CALIBRATION_DIR``, a temporary directory
unless already set), so a cell's routes cannot drift from the
reference's with timing noise.

Emits ``BENCH_sweep.json``::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py --out BENCH_sweep.json

The default grid is 8 configs (4 methods x 2 sparsities) at the quick
CPU profile; ``--epochs``/``--train-samples`` scale the per-job cost so
the parallel speedup is visible above process-startup overhead, and
``--methods``/``--sparsities`` shrink the grid for quick gate runs.

A regression gate over the committed numbers::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py --check BENCH_sweep.json

re-times the grid and exits non-zero if the headline queue speedup
regressed by more than 15% or any cell's results diverge
from the sequential reference (tier-1 runs the gate mechanism via a
smoke test; only the speedup ratio is gated, never absolute times).
"""

import contextlib
import os
import sys
import tempfile
import time

from repro.experiments import run_sweep, scaled_config, sweep_configs
from repro.sparse.dispatch import CALIBRATION_ENV

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:  # spec loaders do not put it there
    sys.path.insert(0, BENCH_DIR)
import _gate  # noqa: E402

METHODS = ("ndsnn", "set", "rigl", "gmp")
SPARSITIES = (0.9, 0.95)
#: Headline metrics the regression gate compares (higher is better);
#: every queue cell must also reproduce the sequential reference
#: bit-for-bit.
HEADLINE_METRICS = ("best_queue_speedup",)
GATE = _gate.Gate(
    HEADLINE_METRICS,
    divergence="queue results diverged from the sequential reference",
)


def build_grid(epochs: int, train_samples: int,
               methods=METHODS, sparsities=SPARSITIES):
    base = scaled_config(
        "cifar10", "convnet", methods[0], sparsities[0],
        epochs=epochs, train_samples=train_samples,
        test_samples=max(16, train_samples // 4),
        timesteps=2, batch_size=16, update_frequency=4,
    )
    return sweep_configs(base, list(methods), sparsities=list(sparsities))


def outcome_fingerprint(outcome):
    return (
        outcome.config.method,
        outcome.config.sparsity,
        outcome.final_accuracy,
        outcome.best_accuracy,
        outcome.final_sparsity,
        tuple(tuple(sorted(stats.as_dict().items())) for stats in outcome.history),
    )


def time_sweep(configs, jobs: int, spool=None):
    start = time.perf_counter()
    outcomes = run_sweep(configs, jobs=jobs, spool=spool)
    return time.perf_counter() - start, outcomes


@contextlib.contextmanager
def shared_calibration():
    """Point every cell at one calibration cache for the whole run."""
    if os.environ.get(CALIBRATION_ENV):
        yield
        return
    with tempfile.TemporaryDirectory(prefix="repro-bench-calibration-") as directory:
        os.environ[CALIBRATION_ENV] = directory
        try:
            yield
        finally:
            del os.environ[CALIBRATION_ENV]


def run_scaling(epochs: int, train_samples: int, worker_counts,
                methods=METHODS, sparsities=SPARSITIES):
    configs = build_grid(epochs, train_samples,
                         methods=methods, sparsities=sparsities)
    cells = []
    with shared_calibration():
        reference_seconds, reference = time_sweep(configs, jobs=1)
        reference_prints = [outcome_fingerprint(outcome) for outcome in reference]
        for jobs in worker_counts:
            with tempfile.TemporaryDirectory(prefix="repro-bench-spool-") as spool:
                seconds, outcomes = time_sweep(configs, jobs, spool=spool)
            cells.append(
                {
                    "jobs": jobs,
                    "seconds": seconds,
                    "speedup_vs_sequential": reference_seconds / seconds,
                    "bit_identical": [
                        outcome_fingerprint(outcome) for outcome in outcomes
                    ] == reference_prints,
                }
            )
    return {
        "bench": "sweep_scaling_queue_vs_sequential",
        "grid_configs": len(configs),
        "methods": list(methods),
        "sparsities": list(sparsities),
        "epochs": epochs,
        "train_samples": train_samples,
        "sequential_seconds": reference_seconds,
        "cells": cells,
        "all_bit_identical": all(c["bit_identical"] for c in cells),
        "best_queue_speedup": max(c["speedup_vs_sequential"] for c in cells),
    }


def main(argv=None):
    parser = _gate.parser("sweep queue scaling comparison", "BENCH_sweep.json")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--train-samples", type=int, default=128)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--methods", nargs="+", default=list(METHODS))
    parser.add_argument("--sparsities", type=float, nargs="+",
                        default=list(SPARSITIES))
    args = parser.parse_args(argv)
    payload = run_scaling(
        args.epochs, args.train_samples, args.workers,
        methods=tuple(args.methods), sparsities=tuple(args.sparsities),
    )
    for cell in payload["cells"]:
        print(
            f"queue jobs={cell['jobs']}: "
            f"{cell['seconds']:6.2f}s  "
            f"({cell['speedup_vs_sequential']:.2f}x vs sequential, "
            f"bit-identical: {cell['bit_identical']})"
        )
    print(f"best queue speedup: {payload['best_queue_speedup']:.2f}x")
    return _gate.finish(args, payload, GATE)


if __name__ == "__main__":
    raise SystemExit(main())
