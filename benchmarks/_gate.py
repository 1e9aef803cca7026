"""The regression gate shared by the five ``--check`` benches.

Every gate bench (kernels, sweep scaling, serving, streaming, packaging)
builds one payload dict of measurements and headline ratios, and ends
its ``main`` in :func:`finish`.  This module holds the three things the
benches used to carry a private copy of each:

* **one check** — :class:`Gate` compares a payload's headlines with a
  committed ``BENCH_*.json`` baseline under one rule set;
* **one CLI tail** — :func:`parser` declares ``--out``, ``--check`` and
  a positive ``--repeats``; :func:`finish` writes the payload or checks
  it and returns the exit code;
* **one timer** — :func:`time_interleaved` times the callables a bench
  compares round-robin, so host drift lands on every side of a ratio.
"""

import argparse
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

#: Headline metrics may regress by at most this fraction before
#: ``--check`` fails.
CHECK_TOLERANCE = 0.15


@dataclass(frozen=True)
class Gate:
    """What a bench gates, and the one check every bench runs.

    ``headlines`` are higher-is-better ratios: each fails below
    ``base * (1 - tolerance)``.  ``ceilings`` maps lower-is-better
    metrics to an absolute ceiling floor: each fails above
    ``max(base * (1 + tolerance), floor)``, so jitter under the floor
    never trips the gate.  A metric missing from the baseline is
    skipped (older baselines predate it).  With ``divergence`` set, a
    payload whose ``all_bit_identical`` is false always fails, with
    that message: a fast wrong result is not a fast result.
    """

    headlines: Tuple[str, ...]
    ceilings: Mapping[str, float] = field(default_factory=dict)
    divergence: Optional[str] = None

    def invariant_failures(self, payload) -> List[str]:
        """Failures that need no baseline (empty = invariants hold)."""
        if self.divergence is not None and not payload["all_bit_identical"]:
            return [f"all_bit_identical: {self.divergence}"]
        return []

    def check(self, baseline, payload, tolerance=CHECK_TOLERANCE) -> List[str]:
        """Human-readable failures vs ``baseline`` (empty = pass)."""
        failures = []
        for metric in self.headlines:
            base = baseline.get(metric)
            if base is None:
                continue
            current = payload[metric]
            floor = base * (1.0 - tolerance)
            if current < floor:
                failures.append(
                    f"{metric}: {current:.3f} < {floor:.3f} "
                    f"(baseline {base:.3f} - {tolerance:.0%})"
                )
        for metric, minimum in self.ceilings.items():
            base = baseline.get(metric)
            if base is None:
                continue
            current = payload[metric]
            ceiling = max(base * (1.0 + tolerance), minimum)
            if current > ceiling:
                failures.append(
                    f"{metric}: {current:.3f} > {ceiling:.3f} "
                    f"(baseline {base:.3f} + {tolerance:.0%})"
                )
        return failures + self.invariant_failures(payload)


def positive_int(text: str) -> int:
    """argparse type for a repeat count: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parser(description: str, out: str, repeats: Optional[int] = None):
    """An argument parser with the gate's ``--out`` and ``--check``,
    plus ``--repeats`` (a positive int) when ``repeats`` is given."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--out", default=out)
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="re-measure and fail (exit 1) if a headline regressed more "
             f"than {CHECK_TOLERANCE:.0%} vs this JSON",
    )
    if repeats is not None:
        parser.add_argument("--repeats", type=positive_int, default=repeats)
    return parser


def finish(args, payload, gate: Gate) -> int:
    """Check ``payload`` against ``--check``, or write it to ``--out``.

    Returns the exit code: 1 on a regression, or when writing a payload
    whose invariants fail; else 0.
    """
    if args.check is not None:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = gate.check(baseline, payload)
        for failure in failures:
            print(f"REGRESSION {failure}")
        if failures:
            return 1
        print(f"no headline regression vs {args.check}")
        return 0
    # Speedups from parallel or BLAS-threaded work are only meaningful
    # relative to the core count of the host that recorded them.
    payload = dict(payload, cpu_count=os.cpu_count())
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")
    broken = gate.invariant_failures(payload)
    for failure in broken:
        print(f"WARNING {failure}")
    return 1 if broken else 0


def time_interleaved(
    fns: Sequence[Callable[[], object]], repeats: int
) -> List[List[float]]:
    """Per-call seconds of each callable, ``repeats`` calls each.

    Every callable runs once untimed first (lazy allocations, cache and
    page-cache fills), then each round calls every callable once in
    turn.  The gated ratios compare code paths whose difference is often
    smaller than the host's drift over a run; alternating the calls puts
    that drift on both sides of each ratio instead of on whichever loop
    happened to run through it.
    """
    for fn in fns:
        fn()
    times: List[List[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for fn, seconds in zip(fns, times):
            start = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - start)
    return times
