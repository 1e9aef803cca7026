"""stream_telemetry: sensor telemetry through StreamServer (open loop).

Sixteen interleaved devices with 64 channels each feed
``StreamServer(workers=2)`` over a frozen, 90%-sparse CSR
``SpikingMLP`` (hidden width 256) with tumbling windows of 8 events.
Per-event framework work (state swap, module-tree walks, ``Tensor``
construction) outweighs the kernel here, and the server drives the
shared ``MicroBatcher`` with ``max_batch=1`` and no hold, the opposite
of serving.

After a warm-up feed, the run repeats rounds of three phases:
``replay`` queues a whole feed on a fresh server and times its workers
draining it, again and again for its share of the round; ``low`` and
``high`` replay feeds at fixed rates by rescaling the feed's own
Poisson timestamps.  Each feed's devices have their own ids and a whole
number of windows, so every window closes inside its phase.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

import numpy as np

import repro.stream  # noqa: F401  (imported first: repro.data.telemetry alone hits a circular import)
from common import (
    Tracer,
    check_phase,
    drain,
    host_probe,
    open_loop,
    pct,
    peak_rss_mb,
    phase_summary,
    rate_at_reference,
    repeat_for,
    time_at_reference,
)
from repro.data.telemetry import make_telemetry_stream
from repro.serve import StreamServer
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.stream import StreamSession

#: Per-device event rate of the generated timestamps (events/s).
FEED_RATE_HZ = 100.0


def build_session(spec: dict, seed: int) -> StreamSession:
    """A frozen CSR streaming session; the same seed gives the same weights."""
    model_spec, window = spec["model"], spec["window"]
    hidden = model_spec["hidden"]
    model = SpikingMLP(
        model_spec["channels"], model_spec["classes"], hidden=(hidden, hidden),
        timesteps=window, rng=np.random.default_rng(seed),
    )
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 1.0 - model_spec["sparsity"] for name in manager.states})
    manager.set_execution("csr")
    manager.freeze()
    return StreamSession(model, window=window, manager=manager)


def events_per_device(spec: dict, rate: float, duration: float) -> int:
    """Events per device for ``duration`` seconds at ``rate``, in whole windows."""
    window = spec["window"]
    return max(1, round(rate * duration / spec["devices"] / window)) * window


def make_feed(spec: dict, seed: int, label: str, per_device: int) -> list:
    ids = [f"{label}-{index:02d}" for index in range(spec["devices"])]
    return list(make_telemetry_stream(
        num_channels=spec["model"]["channels"], num_events=per_device,
        rate_hz=FEED_RATE_HZ, seed=seed, stream_ids=ids,
    ))


def rescaled_dues(spec: dict, events: list, rate: float) -> np.ndarray:
    """Feed timestamps stretched so the merged feed arrives at ``rate``/s."""
    stamps = np.array([event.timestamp for event in events])
    return (stamps - stamps[0]) * (spec["devices"] * FEED_RATE_HZ / rate)


class Setup:
    """One set-up: a session per worker and the generated feeds."""

    def __init__(self, spec: dict, seed: int, seconds: float) -> None:
        start = time.perf_counter()
        phases, rounds = spec["phases"], spec["rounds"]
        self.sessions = [build_session(spec, seed) for _ in range(spec["workers"])]
        self.feeds = {
            "warmup": make_feed(spec, seed, "warmup", phases["warmup"]["events_per_device"]),
            "replay": make_feed(spec, seed, "replay", phases["replay"]["events_per_device"]),
        }
        for phase in ("low", "high"):
            rate = phases[phase]["rate_per_s"]
            duration = phases[phase]["share_of_seconds"] * seconds / rounds
            per_device = events_per_device(spec, rate, duration)
            self.feeds[phase] = [make_feed(spec, seed, f"{phase}{index}", per_device)
                                 for index in range(rounds)]
        self.setup_s = time.perf_counter() - start


def instrument(tracer: Tracer, sessions, due_of: dict, waits) -> None:
    """Spans around process and forward_once; queue waits per phase."""
    for session in sessions:
        tracer.wrap(session.model, "forward_once", "stream.forward_once")
        process = session.process

        def traced_process(event, process=process):
            phase, due = due_of.get(id(event), (None, 0.0))
            if phase is not None:
                waits[phase].append(time.perf_counter() - due)
            with tracer.span("stream.process"):
                return process(event)

        session.process = traced_process


class Tally:
    """Correctness of every phase run, checked as soon as it ends.

    Every window must be bit-equal to the offline pass over its frames,
    and the window count exact.  Repeated replays of one feed must
    reproduce the first replay's windows exactly, which that replay's
    offline check covers.  Only counts and the first replay's logits
    are kept, so memory does not grow with the number of replays.
    ``seconds`` is the time spent checking, which the traced wall time
    leaves out.
    """

    def __init__(self, spec: dict, verifier: StreamSession) -> None:
        self.window = spec["window"]
        self.verifier = verifier
        self.attempted = self.errors = self.mismatched = 0
        self.windows = self.expected_windows = 0
        self.first_replay = None
        self.seconds = 0.0

    def add(self, label: str, phase_run, events: list) -> None:
        start = time.perf_counter()
        try:
            self._check(label, phase_run, events)
        finally:
            self.seconds += time.perf_counter() - start

    def _check(self, label: str, phase_run, events: list) -> None:
        self.attempted += len(events)
        self.errors += phase_run.errors
        self.expected_windows += len(events) // self.window
        emitted = [output for output in phase_run.outputs if output is not None]
        phase_run.outputs = None  # checked below; only its timings are kept
        self.windows += len(emitted)
        if label == "replay" and self.first_replay is not None:
            self.mismatched += sum(
                not np.array_equal(output.logits, first)
                for output, first in zip(emitted, self.first_replay)
            ) + abs(len(emitted) - len(self.first_replay))
            return
        if label == "replay":
            self.first_replay = [output.logits for output in emitted]
        for output in emitted:
            if not np.array_equal(self.verifier.offline_reference(output.frames), output.logits):
                self.mismatched += 1


def run(spec: dict, seed: int, seconds: float, trace: bool, run_dir: str, result):
    phases = spec["phases"]
    setup_s, probes = [], []
    for _ in range(spec["setup_repeats"]):
        setup = None  # one set-up alive at a time, so peak_rss_mb is one operator's
        gc.collect()
        probes.append(host_probe())
        setup = Setup(spec, seed, seconds)
        setup_s.append(setup.setup_s)
    tally = Tally(spec, build_session(spec, seed))
    tracer = Tracer() if trace else None
    due_of, waits = {}, defaultdict(list)
    servers = []

    def new_server():
        ready = list(setup.sessions)

        def factory():
            return ready.pop() if ready else build_session(spec, seed)

        servers.append(StreamServer(factory, workers=spec["workers"]))
        return servers[-1]

    def submitter(server, label, events, record=False):
        def submit(index, due):
            if record:
                due_of[id(events[index])] = (label, due)
            return server.submit(events[index])
        return submit

    def drained(label):
        events = setup.feeds[label]
        server = new_server()
        probes.append(host_probe())
        phase_run = drain(server, submitter(server, label, events), len(events))
        tally.add(label, phase_run, events)
        return phase_run.throughput()

    # Replays and open-loop chunks run in interleaved rounds, so every
    # phase samples the whole run.
    rounds = spec["rounds"]
    replay_s = phases["replay"]["share_of_seconds"] * seconds / rounds
    drained("warmup")
    if trace:
        untraced_rates = repeat_for(rounds * replay_s, lambda: drained("replay"))
        instrument(tracer, setup.sessions, due_of, waits)
        traced_start, checked_s = time.perf_counter(), tally.seconds
    rates, chunks = [], defaultdict(list)
    for round_index in range(rounds):
        rates.extend(repeat_for(replay_s, lambda: drained("replay")))
        with new_server() as server:
            for phase in ("low", "high"):
                events = setup.feeds[phase][round_index]
                dues = rescaled_dues(spec, events, phases[phase]["rate_per_s"])
                chunk = open_loop(submitter(server, phase, events, record=trace), dues)
                tally.add(phase, chunk, events)
                chunks[phase].append(chunk)
    if trace:
        wall = time.perf_counter() - traced_start - (tally.seconds - checked_s)
        busy = tracer.busy_by_thread()
    summaries = {}
    for phase in ("low", "high"):
        summaries[phase] = phase_summary(phase, chunks[phase], phases[phase]["warmup_s"])
        check_phase(result, phase, summaries[phase], phases[phase])
    stats = [server.stats() for server in servers]
    result.ops(tally.attempted, tally.errors + tally.mismatched)
    result.check("window count exact", tally.windows == tally.expected_windows,
                 f"{tally.windows} windows, expected {tally.expected_windows}")
    result.check("every window bit-equal to offline_reference", tally.mismatched == 0,
                 f"{tally.mismatched} of {tally.windows} differ")
    failed = sum(entry["failed"] for entry in stats)
    restarts = sum(entry["restarts"] for entry in stats)
    result.check("servers: no failed events, no restarts", failed == 0 and restarts == 0,
                 f"failed {failed}, restarts {restarts}")

    print(f"replay throughput over {len(rates)} replays: best {max(rates):.1f}, "
          f"median {np.median(rates):.1f} events/s; set-up median {np.median(setup_s):.4f} s; "
          f"host probe fastest {min(probes) * 1e3:.2f} ms, median {np.median(probes) * 1e3:.2f} ms")
    result.metric("setup_s", time_at_reference(setup_s, probes))
    result.metric("throughput_per_s", rate_at_reference(max(rates), probes))
    result.metric("peak_rss_mb", peak_rss_mb())
    if not trace:
        return None

    totals = tracer.totals()
    print(f"traced region: wall {wall:.4f} s x {spec['workers']} workers; self time by layer:")
    tracer.report()
    _, process_s, processed = totals.get("stream.process", (0.0, 0.0, 0))
    _, forward_s, _ = totals.get("stream.forward_once", (0.0, 0.0, 0))
    per_event = 1e3 / max(1, processed)
    for phase in ("low", "high"):
        result.metric(f"stream.queue_wait_{phase}_p50_ms", pct(np.asarray(waits[phase]) * 1e3, 50))
    result.metric("stream.process_ms", process_s * per_event)
    result.metric("stream.forward_once_ms", forward_s * per_event)
    result.metric("stream.overhead_ms", (process_s - forward_s) * per_event)
    result.metric("stream.events", processed)
    result.metric("stream.windows", tally.windows)
    result.metric("gen.late_p90_ms", max(summaries[p]["late_p90_ms"] for p in summaries))
    result.metric("gen.backlog_end", max(summaries[p]["backlog_end"] for p in summaries))
    for phase in ("low", "high"):
        result.metric(f"gen.{phase}_rate_p50_ms", summaries[phase]["p50_ms"])
        result.metric(f"gen.{phase}_rate_p90_ms", summaries[phase]["p90_ms"])
    result.metric("trace.wall_s", wall)
    # Worker-seconds of the traced region spent outside any traced call.
    result.metric("trace.unattributed_s", spec["workers"] * wall - sum(busy.values()))
    result.metric("trace.spans", len(tracer.spans))
    untraced = max(untraced_rates)
    result.metric("trace.overhead_pct", (untraced - max(rates)) / untraced * 100.0)
    return tracer
