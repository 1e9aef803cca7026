"""Measurement pieces shared by the workloads.

* :class:`Result` collects a run's checks, operation counts and metric
  values; ``run.py`` renders it as the one-line JSON result.
* :class:`Tracer` records spans in memory around calls the benchmark
  wraps on the instances it builds (nothing under ``src/`` changes).  A
  layer's self time is its spans' durations minus the part their child
  spans on the same thread cover.
* :func:`open_loop` submits a fixed schedule of operations from one
  generator thread and times every operation from when it was due.
* :func:`host_probe` times fixed work outside the program, so that
  :func:`rate_at_reference` and :func:`time_at_reference` can report
  timings at one reference speed of the shared host.
"""

from __future__ import annotations

import json
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial

import numpy as np


def pct(values, q: float) -> float:
    """``q``-th percentile of ``values`` (NaN when there are none)."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def poisson_dues(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets in seconds of a Poisson process over ``duration``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    dues = np.cumsum(gaps)
    return dues[dues < duration]


#: Seconds :func:`host_probe` takes at the fastest seen on the host the
#: benchmark was tuned on (a 2-vCPU x86-64 VM, Python 3.11).  Any fixed
#: value works: it only sets the scale of the reported timings.
PROBE_REFERENCE_S = 0.0105
_PROBE_VALUES = np.random.default_rng(0).random(1 << 17)


def host_probe() -> float:
    """Seconds that a fixed piece of interpreter and NumPy work takes now.

    No code of the program runs in it, so a change to the program cannot
    move it: it measures only how fast the shared host is at the moment.
    On the 2-vCPU host the benchmark was tuned on, its median over one
    run moved by 15-33% between runs minutes apart, and throughput with
    it (the CPU time of the work swings too, so the core is contended,
    not taken away).  The reported timings are scaled by it.
    """
    start = time.perf_counter()
    counts = {}
    for index in range(20000):
        counts[index % 997] = counts.get(index % 997, 0) + index
    values = _PROBE_VALUES
    for _ in range(8):
        values = np.sort(values[::-1])
    return time.perf_counter() - start


def rate_at_reference(best_rate: float, probes) -> float:
    """A run's best rate, scaled to the probe's reference speed.

    The best rate and the fastest probe both come from the run's fastest
    moments, so a run spent wholly in a slow spell of the host reads the
    same as one that caught a fast spell.
    """
    return best_rate * min(probes) / PROBE_REFERENCE_S


def time_at_reference(times, probes) -> float:
    """The median of ``times``, scaled to the probe's reference speed by
    the median probe of the same run."""
    return float(np.median(times)) * PROBE_REFERENCE_S / float(np.median(probes))


def repeat_for(budget_s: float, measure) -> list:
    """Call ``measure()`` until ``budget_s`` seconds have passed, at least
    once; returns what each call returned."""
    values = []
    end = time.perf_counter() + budget_s
    while not values or time.perf_counter() < end:
        values.append(measure())
    return values


class Result:
    """Checks, operation counts and metric values of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def metric(self, name: str, value) -> None:
        self.metrics[name] = float(value)


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "child_s")

    def __init__(self, name: str, parent) -> None:
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.child_s = 0.0
        self.end = None
        self.start = time.perf_counter()


class Tracer:
    """In-memory spans around wrapped calls, nested per thread."""

    def __init__(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack[:] = [open_span for open_span in stack if open_span is not span]
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, owner, attr: str, name: str, when=None) -> None:
        """Replace ``owner.attr`` by the same call recorded as a span.

        ``when`` (optional, no arguments) decides per call whether the
        call is recorded.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if when is not None and not when():
                return original(*args, **kwargs)
            span = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        setattr(owner, attr, traced)

    def totals(self) -> dict:
        """``{name: (self_s, inclusive_s, count)}`` over finished spans."""
        rows = defaultdict(lambda: [0.0, 0.0, 0])
        for span in self.spans:
            if span.end is None:
                continue
            duration = span.end - span.start
            row = rows[span.name]
            row[0] += duration - span.child_s
            row[1] += duration
            row[2] += 1
        return {name: tuple(row) for name, row in rows.items()}

    def busy_by_thread(self) -> dict:
        """Self seconds of the finished spans, summed per thread."""
        busy = defaultdict(float)
        for span in self.spans:
            if span.end is not None:
                busy[span.thread] += span.end - span.start - span.child_s
        return dict(busy)

    def report(self) -> None:
        """Print each layer's self time, largest first."""
        for name, (self_s, inclusive_s, count) in sorted(
            self.totals().items(), key=lambda item: -item[1][0]
        ):
            print(f"  {name:22s} self {self_s:9.4f} s  inclusive {inclusive_s:9.4f} s  "
                  f"{count:7d} spans")

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, times relative to the first span's start."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            [
                span.name,
                span.thread,
                span.start - origin,
                None if span.end is None else span.end - origin,
                None if span.parent is None else index[id(span.parent)],
            ]
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({
                "meta": meta,
                "columns": ["name", "thread", "start_s", "end_s", "parent"],
                "spans": rows,
            }, handle)


class Traced:
    """An iterable whose iteration is recorded as spans.

    ``per_item=True`` records one span per item fetched (the loader's
    work for that batch); otherwise one span covers the whole pass.
    """

    def __init__(self, tracer: Tracer, iterable, name: str, per_item: bool) -> None:
        self.tracer = tracer
        self.iterable = iterable
        self.name = name
        self.per_item = per_item

    def __len__(self) -> int:
        return len(self.iterable)

    def __iter__(self):
        if not self.per_item:
            with self.tracer.span(self.name):
                yield from self.iterable
            return
        iterator = iter(self.iterable)
        while True:
            span = self.tracer.begin(self.name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.tracer.end(span)
            yield item


class PhaseRun:
    """One phase or chunk: due, completion and lateness per operation."""

    def __init__(self, dues, targets, done, late, backlog_end, outputs, errored) -> None:
        self.dues = dues
        self.targets = targets
        self.done = done
        self.late = late
        self.backlog_end = backlog_end
        self.outputs = outputs
        self.errored = errored

    @property
    def errors(self) -> int:
        return int(self.errored.sum())

    def latencies_ms(self, warmup_s: float = 0.0) -> np.ndarray:
        """Latency from due time to completion, after the warm-up.

        A failed operation counts as infinitely late, so it misses any
        latency limit.
        """
        latency = (self.done - self.targets) * 1e3
        latency[self.errored] = np.inf
        return latency[self.dues >= warmup_s]

    def throughput(self) -> float:
        """Operations per second from the first due time to the last completion."""
        return len(self.dues) / (np.nanmax(self.done) - self.targets[0])


def _stamp(done: np.ndarray, index: int, _future) -> None:
    done[index] = time.perf_counter()


def open_loop(submit, dues, timeout: float = 60.0) -> PhaseRun:
    """Submit operation ``i`` at ``dues[i]`` seconds after the start.

    ``submit(i, target)`` enqueues operation ``i``, due at ``target`` on
    the ``perf_counter`` clock, and returns its future.  The schedule
    never waits for the system: a late generator submits at once and
    records how late it ran, and every latency counts from the due time.
    """
    dues = np.asarray(dues, dtype=np.float64)
    count = len(dues)
    done = np.full(count, np.nan)
    late = np.empty(count)
    targets = time.perf_counter() + 0.002 + dues
    futures = []
    for index in range(count):
        delay = targets[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late[index] = time.perf_counter() - targets[index]
        future = submit(index, targets[index])
        future.add_done_callback(partial(_stamp, done, index))
        futures.append(future)
    backlog_end = int(np.isnan(done).sum())
    outputs, errored = _collect(futures, timeout)
    return PhaseRun(dues, targets, done, late, backlog_end, outputs, errored)


def drain(server, submit, count: int, timeout: float = 60.0) -> PhaseRun:
    """Queue ``count`` operations on a server that is not started yet,
    then start it and time its workers draining the queue.

    Nothing else runs meanwhile, so the rate is the server's own, not
    shared with the generator thread.
    """
    done = np.full(count, np.nan)
    futures = []
    for index in range(count):
        future = submit(index, 0.0)
        future.add_done_callback(partial(_stamp, done, index))
        futures.append(future)
    start = time.perf_counter()
    server.start()
    try:
        outputs, errored = _collect(futures, timeout)
    finally:
        server.stop()
    zeros = np.zeros(count)
    return PhaseRun(zeros, zeros + start, done, zeros, 0, outputs, errored)


def _collect(futures, timeout: float):
    outputs = []
    errored = np.zeros(len(futures), dtype=bool)
    for index, future in enumerate(futures):
        try:
            outputs.append(future.result(timeout=timeout))
        except Exception as error:  # counted as a failed operation, not fatal
            print(f"operation {index} failed: {error!r}")
            outputs.append(None)
            errored[index] = True
    return outputs, errored


def phase_summary(name: str, chunks, warmup_s: float) -> dict:
    """Latency percentiles, generator lateness and end backlog of a phase
    run as ``chunks`` spread over the run.

    The percentiles pool every chunk's latencies.  The validity checks
    take the median chunk, so one host stall does not void a phase but a
    rate the server cannot sustain fails in every chunk.
    """
    per_chunk = [chunk.latencies_ms(warmup_s) for chunk in chunks]
    latency = np.concatenate(per_chunk)
    summary = {
        "ops": int(latency.size),
        "p50_ms": pct(latency, 50),
        "p90_ms": pct(latency, 90),
        "p90_median_chunk_ms": float(np.median([pct(values, 90) for values in per_chunk])),
        "backlog_median_chunk": float(np.median([chunk.backlog_end for chunk in chunks])),
        "p99_ms": pct(latency, 99),
        "late_p90_ms": pct(np.concatenate([chunk.late for chunk in chunks]) * 1e3, 90),
        "backlog_end": max(chunk.backlog_end for chunk in chunks),
        "errors": sum(chunk.errors for chunk in chunks),
    }
    print(
        f"{name}: {summary['ops']} ops  p50 {summary['p50_ms']:.3f} ms  "
        f"p90 {summary['p90_ms']:.3f} ms  "
        f"p99 {summary['p99_ms']:.3f} ms ({latency.size // 100} samples beyond)  "
        f"generator late p90 {summary['late_p90_ms']:.3f} ms  "
        f"backlog at end {summary['backlog_end']}  errors {summary['errors']}"
    )
    print(f"{name} chunk p50/p90 ms: "
          + "  ".join(f"{pct(values, 50):.3f}/{pct(values, 90):.3f}" for values in per_chunk))
    return summary


def check_phase(result: Result, name: str, summary: dict, limits: dict) -> None:
    """A phase counts only within its p90 limit and without a growing backlog."""
    result.check(f"{name}: p90 within its limit",
                 summary["p90_median_chunk_ms"] <= limits["p90_limit_ms"],
                 f"{summary['p90_median_chunk_ms']:.3f} ms > {limits['p90_limit_ms']} ms")
    result.check(f"{name}: backlog did not grow",
                 summary["backlog_median_chunk"] <= limits["backlog_limit"],
                 f"{summary['backlog_median_chunk']} left > {limits['backlog_limit']}")
