"""Re-pin the train_ndsnn dispatch routes and regenerate its reference.

    python3 perfbench/make_reference.py

Measures the dispatch cutoffs of the job's layer shapes on the host it runs on
into ``calibration/`` (the write-once files ``REPRO_CALIBRATION_DIR``
reads), then trains the job once per reference seed and writes
``reference/train_ndsnn.json``: the per-epoch loss band, the per-epoch
CSR dispatch share the pinned routes produce, and each layer's final
active-weight count.  Re-pinning changes what the benchmark measures,
so it is a benchmark change of its own.
"""

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

from repro.sparse.dispatch import CALIBRATION_ENV, clear_process_cache  # noqa: E402
from train_ndsnn import CALIBRATION_DIR, REFERENCE_PATH, Job, job_config  # noqa: E402

SEEDS = tuple(range(8))
#: Loss tolerance per epoch: this many times the largest distance of a
#: reference seed from the mean, and never below the floor.
TOLERANCE_FACTOR = 3.0
TOLERANCE_FLOOR = 0.05


def main() -> int:
    job_spec = run.CONFIG["workloads"]["train_ndsnn"]["job"]
    shutil.rmtree(CALIBRATION_DIR, ignore_errors=True)
    os.makedirs(CALIBRATION_DIR)
    os.environ[CALIBRATION_ENV] = CALIBRATION_DIR
    clear_process_cache()
    losses, shares, finals = [], [], []
    for seed in SEEDS:
        job = Job(job_config(job_spec, seed))
        history = job.trainer.fit(job_spec["epochs"]).history
        losses.append([stats.train_loss for stats in history])
        shares.append([stats.csr_dispatch_share for stats in history])
        masks = job.method.masks
        finals.append({name: masks.nonzero_count(name) for name in masks.states})
        print(f"seed {seed}: losses {np.round(losses[-1], 4).tolist()}  "
              f"csr share {np.round(shares[-1], 4).tolist()}")
    if any(share != shares[0] for share in shares) or any(f != finals[0] for f in finals):
        print("routes or final densities depend on the seed; the plan cannot be pinned")
        return 1
    losses = np.asarray(losses)
    mean = losses.mean(axis=0)
    spread = np.abs(losses - mean).max(axis=0)
    tolerance = np.maximum(TOLERANCE_FACTOR * spread, TOLERANCE_FLOOR)
    reference = {
        "seeds": list(SEEDS),
        "loss": {
            "rule": f"|loss - mean| <= max({TOLERANCE_FACTOR} x largest seed "
                    f"deviation, {TOLERANCE_FLOOR}) per epoch",
            "mean": mean.tolist(),
            "tolerance": tolerance.tolist(),
        },
        "csr_share": shares[0],
        "final_active": finals[0],
        "cutoffs": job.method.masks.calibration.to_meta(),
    }
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH} and {len(os.listdir(CALIBRATION_DIR))} calibration files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
