"""Single entry point for every benchmark regression gate.

Runs the five ``--check`` gates (kernels, sweep scaling, serving,
streaming, packaging) against their committed ``BENCH_*.json``
baselines in one command::

    PYTHONPATH=src python benchmarks/check_all.py

Each gate re-times its grid and fails if a headline ratio fell more
than 15% below the committed number (``_gate.py`` holds the one check;
the individual bench modules say what they gate; absolute times never
are).  Exit code is non-zero if *any* gate fails.  A gate that raises
(a crash, a usage error, a torn baseline) counts as a failed gate, and
its summary entry carries the exception; gates keep running after a
failure so one report covers everything.

``--only NAME`` runs a subset; ``--baseline-dir`` points somewhere
other than the repo root (e.g. a CI artifact directory); extra
per-gate arguments are fixed fast settings chosen to keep a full run
in CI-friendly time.  ``--json PATH`` additionally writes a
machine-readable summary (per-gate exit codes and the overall verdict)
for CI dashboards; ``-`` prints it to stdout.
"""

import argparse
import importlib.util
import json
import os
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

#: gate name -> (bench module file, baseline file, fast extra args)
GATES = {
    "kernels": ("bench_kernels", "BENCH_kernels.json", ["--repeats", "10"]),
    "sweep": (
        "bench_sweep_scaling",
        "BENCH_sweep.json",
        ["--epochs", "1", "--train-samples", "32", "--workers", "1", "2"],
    ),
    "serving": ("bench_serving", "BENCH_serving.json", ["--repeats", "5", "--no-server"]),
    "streaming": ("bench_streaming", "BENCH_streaming.json", []),
    "packaging": (
        "bench_packaging",
        "BENCH_packaging.json",
        ["--repeats", "5", "--load-repeats", "3"],
    ),
}


def load_bench(name):
    path = os.path.join(BENCH_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_gate(gate, baseline_dir, extra_args=None):
    """One gate's exit code (2 = baseline missing, treated as failure)."""
    module_name, baseline_name, fast_args = GATES[gate]
    baseline = os.path.join(baseline_dir, baseline_name)
    if not os.path.exists(baseline):
        print(f"[{gate}] MISSING baseline {baseline}")
        return 2
    bench = load_bench(module_name)
    argv = list(fast_args) + list(extra_args or []) + ["--check", baseline]
    print(f"[{gate}] {module_name}.py {' '.join(argv)}")
    return bench.main(argv)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run every benchmark regression gate against its baseline"
    )
    parser.add_argument(
        "--only", action="append", choices=sorted(GATES), default=None,
        help="gate to run (repeatable; default: all five)",
    )
    parser.add_argument(
        "--baseline-dir", default=REPO_ROOT,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write a machine-readable summary here ('-' for stdout)",
    )
    args = parser.parse_args(argv)
    gates = args.only or sorted(GATES)
    results = {}
    failures = []
    for gate in gates:
        error = None
        try:
            code = run_gate(gate, args.baseline_dir)
        except (Exception, SystemExit) as exc:  # a crash fails this gate only
            traceback.print_exc()
            code, error = 1, f"{type(exc).__name__}: {exc}"
        status = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"[{gate}] {status}" + (f" {error}" if error else ""))
        results[gate] = {
            "exit_code": code,
            "ok": code == 0,
            "baseline": GATES[gate][1],
            "error": error,
        }
        if code != 0:
            failures.append(gate)
    if failures:
        print(f"{len(failures)}/{len(gates)} gate(s) failed: {', '.join(failures)}")
    else:
        print(f"all {len(gates)} gate(s) passed")
    if args.json is not None:
        summary = json.dumps({
            "gates": results,
            "failed": failures,
            "ok": not failures,
        }, indent=2, sort_keys=True)
        if args.json == "-":
            print(summary)
        else:
            with open(args.json, "w") as fh:
                fh.write(summary + "\n")
            print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
