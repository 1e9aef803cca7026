"""serve_open_loop: a packed sparse MLP behind InferenceServer.

The model is the serving baseline, ``SpikingMLP`` 768 wide at 90%
unstructured sparsity, exported to an int8 ``.reprom`` package and
served at the pre-scaled f32 runtime through
``ModelRegistry.load_package`` by ``InferenceServer(workers=2,
max_batch=8)`` with the default 5 ms ``max_latency_s``.

Independent clients make this an open loop: one generator thread
submits on a Poisson schedule drawn from the seed, and every latency
counts from when its request was due.  After a warm-up, the run
repeats rounds of three phases: ``burst`` queues a fixed set of
requests on a fresh server and times its workers draining them, again
and again for its share of the round; ``low`` runs a rate at which requests nearly always arrive alone and
``high`` about a third of the burst throughput measured on a 2-vCPU host.
"""

from __future__ import annotations

import gc
import os
import time
from collections import defaultdict

import numpy as np

from common import (
    Tracer,
    check_phase,
    drain,
    host_probe,
    open_loop,
    pct,
    peak_rss_mb,
    phase_summary,
    poisson_dues,
    rate_at_reference,
    repeat_for,
    time_at_reference,
)
from repro.serve import InferenceServer, ModelRegistry
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.sparse.packaging import write_package

NAME = "mlp"


def export_package(model_spec: dict, seed: int, path: str) -> None:
    """Build the masked MLP and pack it as an int8 ``.reprom`` file."""
    width = model_spec["width"]
    kwargs = {
        "in_features": width,
        "num_classes": model_spec["classes"],
        "hidden": [width, width],
        "timesteps": model_spec["timesteps"],
    }
    model = SpikingMLP(rng=np.random.default_rng(seed), **kwargs)
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 1.0 - model_spec["sparsity"] for name in manager.states})
    manager.set_execution("csr")
    model.eval()
    spec = {"model": "mlp", "kwargs": kwargs, "encoder": "direct", "seed": seed}
    write_package(path, model, manager, spec, precision="int8")


class Deployment:
    """One set-up as a deployer pays it: export, mmap load, a session per worker."""

    def __init__(self, spec: dict, seed: int, path: str) -> None:
        start = time.perf_counter()
        export_package(spec["model"], seed, path)
        exported = time.perf_counter()
        self.registry = ModelRegistry().load_package(NAME, path, max_batch=spec["max_batch"])
        self.sessions = [self.registry.session(NAME) for _ in range(spec["workers"])]
        end = time.perf_counter()
        self.export_s = exported - start
        self.load_s = end - exported
        self.setup_s = end - start

    def server(self, spec: dict) -> InferenceServer:
        """A server whose workers run the sessions built at set-up."""
        ready = list(self.sessions)

        def factory():
            return ready.pop() if ready else self.registry.session(NAME)

        return InferenceServer(factory, workers=spec["workers"],
                               max_batch=spec["max_batch"],
                               max_latency_s=spec["max_latency_s"])


def instrument_server(tracer: Tracer, server, due_of: dict, waits, rows) -> None:
    """A span around the batcher hand-off; queue wait and rows per batch."""
    next_batch = server.batcher.next_batch

    def traced_next_batch():
        with tracer.span("serve.next_batch"):
            batch = next_batch()
        if batch:
            now = time.perf_counter()
            phase = None
            for request in batch:
                phase, due = due_of.get(id(request.payload), (None, 0.0))
                if phase is not None:
                    waits[phase].append(now - due)
            rows[phase].append(len(batch))
        return batch

    server.batcher.next_batch = traced_next_batch


def run(spec: dict, seed: int, seconds: float, trace: bool, run_dir: str, result):
    phases = spec["phases"]
    setup_s, export_s, load_s, probes = [], [], [], []
    for index in range(spec["setup_repeats"]):
        deployment = None  # one set-up alive at a time, so peak_rss_mb is one deployer's
        gc.collect()
        probes.append(host_probe())
        deployment = Deployment(spec, seed, os.path.join(run_dir, f"model-{index}.reprom"))
        setup_s.append(deployment.setup_s)
        export_s.append(deployment.export_s)
        load_s.append(deployment.load_s)

    # Every input is drawn up front, in one order, so traced and
    # untraced runs of a seed see the same requests; every burst sends
    # the same ones.  The bursts and the open-loop phases run in
    # interleaved rounds, so every phase samples the whole run.
    rng = np.random.default_rng(seed)
    pool = rng.random((spec["sample_pool"], spec["model"]["width"]), dtype=np.float32)
    rounds = spec["rounds"]
    burst_s = phases["burst"]["share_of_seconds"] * seconds / rounds
    open_phases = ("low", "high")
    schedules = {
        phase: [poisson_dues(rng, phases[phase]["rate_per_s"],
                             phases[phase]["share_of_seconds"] * seconds / rounds)
                for _ in range(rounds)]
        for phase in open_phases
    }
    picks = {
        label: rng.integers(len(pool), size=phases[label]["requests"])
        for label in ("warmup", "burst")
    }
    for phase in open_phases:
        picks[phase] = [rng.integers(len(pool), size=len(dues)) for dues in schedules[phase]]

    # Correctness: every response equals a sequential predict of its
    # sample.  Each phase run is checked as it ends and only counts are
    # kept, so memory does not grow with the number of bursts.
    reference = deployment.registry.session(NAME)
    expected = np.stack([reference.predict(pool[i:i + 1])[0] for i in range(len(pool))])
    counts = {"attempted": 0, "errors": 0, "mismatched": 0}

    def check(phase_run, picked):
        counts["attempted"] += len(picked)
        counts["errors"] += phase_run.errors
        counts["mismatched"] += sum(
            output is not None and not np.array_equal(output, expected[pick])
            for output, pick in zip(phase_run.outputs, picked)
        )
        phase_run.outputs = None

    tracer = Tracer() if trace else None
    traced = False
    due_of, keep = {}, []
    waits, rows = defaultdict(list), defaultdict(list)
    servers = []

    def new_server():
        server = deployment.server(spec)
        if traced:
            instrument_server(tracer, server, due_of, waits, rows)
        servers.append(server)
        return server

    def submitter(server, label, picked):
        def submit(index, due):
            payload = pool[picked[index]]
            if traced:
                # The batcher keeps the payload object, so its id finds
                # the due time again when a worker takes the request.
                due_of[id(payload)] = (label, due)
                keep.append(payload)
            return server.submit(payload)
        return submit

    def drained(label, picked):
        server = new_server()
        probes.append(host_probe())
        phase_run = drain(server, submitter(server, label, picked), len(picked))
        check(phase_run, picked)
        return phase_run.throughput()

    def bursts(budget_s):
        return repeat_for(budget_s, lambda: drained("burst", picks["burst"]))

    drained("warmup", picks["warmup"])
    if trace:
        untraced_rates = bursts(rounds * burst_s)
        for session in deployment.sessions:
            tracer.wrap(session, "predict", "serve.predict")
        traced = True
        traced_start = time.perf_counter()
    rates, chunks = [], defaultdict(list)
    for round_index in range(rounds):
        rates.extend(bursts(burst_s))
        with new_server() as server:
            for phase in open_phases:
                picked = picks[phase][round_index]
                chunk = open_loop(submitter(server, phase, picked), schedules[phase][round_index])
                check(chunk, picked)
                chunks[phase].append(chunk)
    if trace:
        traced_end = time.perf_counter()
        busy = tracer.busy_by_thread()
    summaries = {}
    for phase in open_phases:
        summaries[phase] = phase_summary(phase, chunks[phase], phases[phase]["warmup_s"])
        check_phase(result, phase, summaries[phase], phases[phase])
    stats = {key: sum(server.stats()[key] for server in servers)
             for key in ("batches", "failed", "restarts")}

    result.ops(counts["attempted"], counts["errors"] + counts["mismatched"])
    result.check("every response bit-equal to a sequential predict", counts["mismatched"] == 0,
                 f"{counts['mismatched']} of {counts['attempted']} differ")
    result.check("server: no failed requests, no restarts",
                 stats["failed"] == 0 and stats["restarts"] == 0, str(stats))

    print(f"burst drain rate over {len(rates)} bursts: best {max(rates):.1f}, "
          f"median {np.median(rates):.1f} req/s; set-up median {np.median(setup_s):.4f} s; "
          f"host probe fastest {min(probes) * 1e3:.2f} ms, median {np.median(probes) * 1e3:.2f} ms")
    result.metric("setup_s", time_at_reference(setup_s, probes))
    result.metric("throughput_per_s", rate_at_reference(max(rates), probes))
    result.metric("peak_rss_mb", peak_rss_mb())
    if not trace:
        return None

    totals = tracer.totals()
    wall = traced_end - traced_start
    print(f"traced region: wall {wall:.4f} s x {spec['workers']} workers; self time by layer:")
    tracer.report()
    predict = totals.get("serve.predict", (0.0, 0.0, 0))
    result.metric("packaging.export_ms", np.median(export_s) * 1e3)
    result.metric("packaging.load_ms", np.median(load_s) * 1e3)
    for phase in open_phases:
        wait_ms = np.asarray(waits[phase]) * 1e3
        result.metric(f"serve.queue_wait_{phase}_p50_ms", pct(wait_ms, 50))
        result.metric(f"serve.queue_wait_{phase}_p90_ms", pct(wait_ms, 90))
        result.metric(f"serve.batch_rows_{phase}", np.mean(rows[phase]))
    result.metric("serve.predict_ms", predict[1] / max(1, predict[2]) * 1e3)
    result.metric("serve.batches", stats["batches"])
    result.metric("serve.failed", stats["failed"])
    result.metric("serve.restarts", stats["restarts"])
    result.metric("gen.late_p90_ms", max(summary["late_p90_ms"] for summary in summaries.values()))
    result.metric("gen.backlog_end", max(summary["backlog_end"] for summary in summaries.values()))
    for phase in open_phases:
        result.metric(f"gen.{phase}_rate_p50_ms", summaries[phase]["p50_ms"])
        result.metric(f"gen.{phase}_rate_p90_ms", summaries[phase]["p90_ms"])
    result.metric("trace.wall_s", wall)
    # Worker-seconds of the traced region spent outside any traced call.
    result.metric("trace.unattributed_s", spec["workers"] * wall - sum(busy.values()))
    result.metric("trace.spans", len(tracer.spans))
    untraced = max(untraced_rates)
    result.metric("trace.overhead_pct", (untraced - max(rates)) / untraced * 100.0)
    return tracer
