"""Distributed sweep: shard a method grid through the durable job queue.

This walks the job queue end to end on one machine:

1. build an 8-config grid (4 methods x 2 sparsities),
2. run it through a spool-directory job queue with 2 worker processes,
3. show the spool census and per-job attempts,
4. re-run the same grid sequentially in-process and verify the results
   are bit-identical — the queue's core guarantee,
5. remove the spool.

Run:  python examples/distributed_sweep.py

The multi-host version is the same thing with a shared directory::

    # host A (submits the grid and works it with 2 processes)
    python -m repro sweep --spool /shared/spool --jobs 2

    # hosts B, C, ... (join the same pool; exit when the spool drains)
    python -m repro worker --spool /shared/spool

    # anyone: watch progress, reap crashed workers' leases
    python -m repro sweep-status --spool /shared/spool --jobs-detail

Workers checkpoint the full training state every epoch, so a worker
killed mid-job is re-claimed after its lease expires and *resumed* from
the last epoch boundary — with results identical to an uninterrupted
run (see docs/distributed_sweeps.md).
"""

import os
import tempfile

from repro.experiments import JobQueue, run_sweep, scaled_config, sweep_configs
from repro.experiments.tables import format_table
from repro.sparse import CALIBRATION_ENV
from repro.utils import Timer


def main() -> None:
    base = scaled_config(
        "cifar10", "convnet", "ndsnn", 0.9,
        epochs=2, train_samples=64, test_samples=32,
        timesteps=2, batch_size=16, update_frequency=2,
    )
    configs = sweep_configs(
        base, ["ndsnn", "set", "rigl", "gmp"], sparsities=[0.8, 0.9]
    )
    print(f"grid: {len(configs)} configs "
          f"({sorted({c.method for c in configs})} x {sorted({c.sparsity for c in configs})})")

    with tempfile.TemporaryDirectory(prefix="repro-sweep-example-") as spool:
        print(f"spool: {spool}\n")

        # 1. The job queue: submit + 2 worker processes.
        with Timer() as queue_timer:
            queued = run_sweep(configs, jobs=2, spool=spool)

        # 2. What the spool looks like afterwards.
        queue = JobQueue(spool)
        status = queue.status()
        print(f"spool census: {status.results} results, {status.done} retired "
              f"tokens, {status.failed} failures")
        attempts = [entry.get("attempt", 1) for entry in queue.job_states().values()]
        print(f"attempts per job: {attempts}\n")

        # 3. The same grid, sequentially in-process.  Queue workers
        # adopt the dispatch cutoffs published in spool/calibration;
        # pointing the in-process run there too makes it route every
        # layer as they did.
        os.environ.setdefault(CALIBRATION_ENV, os.path.join(spool, "calibration"))
        with Timer() as sequential_timer:
            sequential = run_sweep(configs, jobs=1)

    rows = [
        (
            config.method,
            f"{config.sparsity:.2f}",
            f"{queued_outcome.final_sparsity:.3f}",
            queued_outcome.final_accuracy,
            "yes" if (
                queued_outcome.final_accuracy == sequential_outcome.final_accuracy
                and [s.as_dict() for s in queued_outcome.history]
                == [s.as_dict() for s in sequential_outcome.history]
            ) else "NO",
        )
        for config, queued_outcome, sequential_outcome in zip(configs, queued, sequential)
    ]
    print(
        format_table(
            ["method", "target", "sparsity", "test_acc", "bit-identical"],
            rows,
            title="job queue (2 workers) vs in-process (sequential)",
        )
    )
    print(f"\njob queue  : {queue_timer.elapsed:.2f}s (2 workers)")
    print(f"in-process : {sequential_timer.elapsed:.2f}s (sequential)")


if __name__ == "__main__":
    main()
