"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload train_ndsnn --seed 1 --seconds 25 --trace 0

Each invocation is one fresh process running one workload of
``perfbench/workloads.json`` against the ``repro`` package in ``src/``
of the checkout this file sits in.  The workload builds its inputs from
``--seed``, measures for about ``--seconds`` seconds and checks its
outputs.  The last line printed is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
holding every ``end_to_end`` metric of ``BENCHMARK.json`` with
``--trace 0``, or every ``per_layer`` metric with ``--trace 1``.  The
traced run wraps the layer calls on the instances the workload builds,
keeps the spans in memory and writes them to
``.perfbench/traces/<workload>-seed<seed>.json`` when it ends; a layer
the workload never enters reports 0.

``python3 perfbench/run.py --self-test`` runs every workload briefly,
traced and untraced, each standalone in its own subprocess, and fails
unless each one prints a correct result.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

with open(os.path.join(HERE, "workloads.json")) as _handle:
    CONFIG = json.load(_handle)

# Pin what the process inherits and the timings depend on, before
# numpy loads: the BLAS thread count, and the string-hash seed that
# shapes every dict and set layout (fixed only at interpreter start,
# hence the re-exec).
_PINNED = {
    "OPENBLAS_NUM_THREADS": str(CONFIG["blas_threads"]),
    "OMP_NUM_THREADS": str(CONFIG["blas_threads"]),
    "MKL_NUM_THREADS": str(CONFIG["blas_threads"]),
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    os.environ.update(_PINNED)
    os.execv(sys.executable, [sys.executable] + sys.argv)
os.environ.update(_PINNED)
# Run every thread on one CPU.  The servers' worker threads take turns
# on the interpreter lock; handing it between CPUs made their
# throughput swing by up to 50% from run to run on a 2-vCPU host.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import importlib  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402


def declared_metrics(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import Result

    spec = CONFIG["workloads"][name]
    sys.path.insert(0, SRC)
    result = Result()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        module = importlib.import_module(spec["module"])
        tracer = module.run(spec, seed, seconds, trace, run_dir, result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is not None:
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"{name}-seed{seed}.json"),
                    {"workload": name, "seed": seed, "seconds": seconds})

    metrics = {}
    for entry in declared_metrics(trace):
        metric = entry["name"]
        if metric in result.metrics:
            value = result.metrics[metric]
        elif trace:
            value = 0.0  # a layer this workload never enters
        else:
            raise RuntimeError(f"workload {name} did not measure {metric}")
        if not math.isfinite(value):
            result.check(f"{metric} measured", False, f"value {value}")
            value = 0.0
        metrics[metric] = {"value": value, "unit": entry["unit"]}
    for failure in result.failures:
        print(f"CHECK FAILED {failure}")
    return {
        "correct": not result.failures and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def self_test(seconds: float) -> int:
    """Run every workload standalone in a subprocess; 1 if any is wrong."""
    failed = []
    for name in CONFIG["workloads"]:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                ok = proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
            except (IndexError, ValueError, KeyError):
                ok = False
            print(f"{name} --trace {trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failed.append(f"{name} --trace {trace}")
                print(proc.stdout[-3000:])
                print(proc.stderr[-3000:])
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload briefly in its own subprocess")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(min(args.seconds, 10.0))
    if args.workload is None:
        parser.error("--workload is required")
    payload = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
