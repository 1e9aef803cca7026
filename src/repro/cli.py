"""Command-line interface: run reproduction experiments from the shell.

Examples
--------
Run one cell of Table I and save the result::

    python -m repro run --dataset cifar10 --model vgg16 --method ndsnn \
        --sparsity 0.95 --epochs 10 --out result.json

Sweep several methods across worker processes::

    python -m repro sweep --method ndsnn --method set --method rigl \
        --jobs 4 --epochs 2 --out sweep.json

Shard the same sweep through a durable spool directory (any number of
extra workers — on this host or on others sharing the filesystem — can
join with ``repro worker``)::

    python -m repro sweep --backend queue --spool /shared/spool --jobs 2
    python -m repro worker --spool /shared/spool          # second terminal
    python -m repro sweep-status --spool /shared/spool    # progress

List the available models/methods/datasets::

    python -m repro list

Print the analytic memory footprint of a model::

    python -m repro memory --model vgg16 --sparsity 0.99 --timesteps 5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .data import DATASET_SPECS
from .experiments import run_method, run_sweep, scaled_config, sweep_configs
from .experiments.config import SCALED_NUM_CLASSES
from .experiments.queue import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    JobQueue,
    QueueWorker,
)
from .experiments.tables import format_table
from .snn.models import MODEL_REGISTRY, build_model
from .sparse.engine import EXECUTION_MODES
from .train import model_footprint
from .utils import save_json

METHOD_CHOICES = ("dense", "ndsnn", "set", "rigl", "lth", "admm", "gmp", "snip")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NDSNN (DAC 2023) reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_workload_arguments(
        parser: argparse.ArgumentParser, include_out: bool = True
    ) -> None:
        parser.add_argument("--dataset", default="cifar10", choices=sorted(DATASET_SPECS))
        parser.add_argument("--model", default="vgg16", choices=sorted(MODEL_REGISTRY))
        parser.add_argument("--sparsity", type=float, default=0.9)
        parser.add_argument("--initial-sparsity", type=float, default=0.6)
        parser.add_argument("--epochs", type=int, default=10)
        parser.add_argument("--timesteps", type=int, default=2)
        parser.add_argument("--batch-size", type=int, default=16)
        parser.add_argument("--lr", type=float, default=0.1)
        parser.add_argument("--width-mult", type=float, default=0.125)
        parser.add_argument("--image-size", type=int, default=16)
        parser.add_argument("--train-samples", type=int, default=224)
        parser.add_argument("--test-samples", type=int, default=64)
        parser.add_argument("--update-frequency", type=int, default=8)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--encoder", default="direct", choices=("direct", "poisson", "latency"),
            help="input coding (poisson's RNG is seeded and checkpointed)",
        )
        parser.add_argument(
            "--execution", default="auto", choices=EXECUTION_MODES,
            help="masked-layer kernels: dense, auto (CSR below the "
                 "measured per-shape density cutoff; the default) or csr",
        )
        if include_out:
            parser.add_argument("--out", default=None, help="write the outcome as JSON")

    run = commands.add_parser("run", help="train one method on one workload")
    add_workload_arguments(run)
    run.add_argument("--method", default="ndsnn", choices=METHOD_CHOICES)
    run.add_argument("--quiet", action="store_true")
    run.add_argument(
        "--checkpoint", default=None,
        help="save the resumable training state here every epoch; the "
             "same path feeds `repro serve` / `repro infer` afterwards",
    )

    def add_serving_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--checkpoint", default=None,
            help="checkpoint written by `repro run --checkpoint` (or any "
                 "save_checkpoint/save_training_state file)",
        )
        parser.add_argument(
            "--package", default=None,
            help="packed .reprom artifact from `repro export` — mmap'd "
                 "zero-copy, no training stack (exactly one of "
                 "--checkpoint / --package)",
        )
        parser.add_argument(
            "--precision", default=None, choices=("f32", "f16", "int8"),
            help="--package runtime: f32 (default; pre-scale quantized "
                 "values into frozen float32 buffers at load) or the "
                 "artifact's stored f16/int8 (CSR kernels run straight "
                 "off the mapped values, minimal memory)",
        )
        parser.add_argument("--method", default="ndsnn", choices=METHOD_CHOICES + ("structured",))
        parser.add_argument(
            "--compact", action="store_true",
            help="physically remove structurally-pruned filters at load "
                 "time (smaller dense kernels; see compact_model)",
        )
        parser.add_argument(
            "--max-batch", type=int, default=8,
            help="canonical serving batch size (requests are padded to "
                 "it so results never depend on batching)",
        )

    infer = commands.add_parser(
        "infer", help="evaluate a checkpoint through the serving engine"
    )
    add_workload_arguments(infer)
    add_serving_arguments(infer)

    serve = commands.add_parser(
        "serve", help="run the batched inference server under synthetic load"
    )
    add_workload_arguments(serve)
    add_serving_arguments(serve)
    serve.add_argument("--workers", type=int, default=2, help="worker thread count")
    serve.add_argument(
        "--max-latency-ms", type=float, default=5.0,
        help="micro-batch flush deadline (oldest request age)",
    )
    serve.add_argument(
        "--requests", type=int, default=64,
        help="synthetic closed-loop requests to issue",
    )
    serve.add_argument(
        "--clients", type=int, default=4,
        help="concurrent closed-loop client threads",
    )

    export = commands.add_parser(
        "export",
        help="pack a checkpoint into a single-file .reprom serving artifact",
    )
    add_workload_arguments(export, include_out=False)
    export.add_argument(
        "--checkpoint", required=True,
        help="checkpoint to pack (save_checkpoint or save_training_state)",
    )
    export.add_argument(
        "--out", required=True,
        help="output .reprom path (delta+varint indices, quantized "
             "values, f16 biases, mmap-ready layout)",
    )
    export.add_argument(
        "--precision", default="int8", choices=("f32", "f16", "int8"),
        help="stored value precision (default int8: per-row absmax "
             "calibration, ~4x smaller than the f32 checkpoint at 90%% "
             "sparsity)",
    )
    export.add_argument(
        "--method", default="ndsnn", choices=METHOD_CHOICES + ("structured",)
    )

    def add_queue_arguments(parser: argparse.ArgumentParser, spool_required: bool) -> None:
        # Defaults are applied in _queue_params, not here, so the sweep
        # command can tell "flag passed" from "default" and reject queue
        # flags when the backend is local.
        parser.add_argument(
            "--spool", required=spool_required, default=None,
            help="spool directory of the durable job queue (shared "
                 "across hosts for multi-host sweeps)",
        )
        parser.add_argument(
            "--lease-seconds", type=float, default=None,
            help="heartbeat lease: a claimed job whose worker stops "
                 f"renewing for this long is re-queued "
                 f"(default {DEFAULT_LEASE_SECONDS:g})",
        )
        parser.add_argument(
            "--max-attempts", type=int, default=None,
            help=f"attempts per job before it lands in failed/ "
                 f"(default {DEFAULT_MAX_ATTEMPTS})",
        )
        parser.add_argument(
            "--backoff-seconds", type=float, default=None,
            help="base of the exponential retry backoff "
                 f"(default {DEFAULT_BACKOFF_SECONDS:g})",
        )

    sweep = commands.add_parser(
        "sweep", help="train several methods, optionally across processes"
    )
    add_workload_arguments(sweep)
    sweep.add_argument(
        "--method", action="append", choices=METHOD_CHOICES, default=None,
        help="method to include (repeatable; default: the full zoo)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (1 = sequential)",
    )
    sweep.add_argument(
        "--backend", default="local", choices=("local", "queue"),
        help="local = in-process pool; queue = durable spool-directory "
             "job queue (crash-safe, joinable from other hosts)",
    )
    add_queue_arguments(sweep, spool_required=False)

    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
        return parsed

    worker = commands.add_parser(
        "worker", help="drain jobs from a sweep spool until it is empty"
    )
    add_queue_arguments(worker, spool_required=True)
    worker.add_argument(
        "--max-jobs", type=positive_int, default=None,
        help="stop after processing this many jobs",
    )
    worker.add_argument(
        "--idle-timeout", type=float, default=None,
        help="exit after this many seconds without claiming a job "
             "(a worker on a still-empty spool waits for the sweep to "
             "submit; without this flag it waits indefinitely)",
    )
    worker.add_argument(
        "--checkpoint-every", type=positive_int, default=1,
        help="epochs between resumable checkpoints",
    )

    status = commands.add_parser(
        "sweep-status", help="inspect a sweep spool (also reaps expired leases)"
    )
    add_queue_arguments(status, spool_required=True)
    status.add_argument(
        "--jobs-detail", action="store_true", dest="jobs_detail",
        help="print one line per job, not just the census",
    )

    stream = commands.add_parser(
        "stream", help="event-driven streaming inference over a telemetry feed"
    )
    stream.add_argument(
        "--source", default="telemetry", choices=("telemetry",),
        help="event source (synthetic sensor telemetry)",
    )
    stream.add_argument("--streams", type=int, default=4, help="simulated devices")
    stream.add_argument("--channels", type=int, default=16, help="sensor channels per event")
    stream.add_argument("--events", type=int, default=256, help="events per device")
    stream.add_argument("--rate-hz", type=float, default=100.0, help="mean arrival rate")
    stream.add_argument("--window", type=int, default=8, help="events per readout window")
    stream.add_argument(
        "--stride", type=int, default=None,
        help="events between readouts (default: window, i.e. tumbling)",
    )
    stream.add_argument(
        "--encoder", default="direct", choices=("direct", "rate", "latency"),
        help="online encoder applied per event",
    )
    stream.add_argument("--hidden", type=int, default=32, help="hidden layer width")
    stream.add_argument("--classes", type=int, default=4, help="readout classes")
    stream.add_argument("--sparsity", type=float, default=0.9, help="mask sparsity")
    stream.add_argument(
        "--ttl", type=float, default=None,
        help="stale-state TTL in event-time seconds (default: no TTL)",
    )
    stream.add_argument(
        "--reset-policy", default="reset", choices=("reset", "carry"),
        help="what to do with a stale stream's state",
    )
    stream.add_argument(
        "--adapt", action="store_true",
        help="thaw the masks and run online drop/grow adaptation",
    )
    stream.add_argument(
        "--adapt-every", type=int, default=4,
        help="windows between adaptation rounds (with --adapt)",
    )
    stream.add_argument(
        "--fault", action="append", default=None, metavar="SPEC",
        help="stream fault spec, repeatable (e.g. channel_dropout:fraction=0.5,p=0.2; "
             "stall:duration=1.0,p=0.05; reconnect:gap=2.0,drop=3,p=0.02)",
    )
    stream.add_argument(
        "--workers", type=int, default=1,
        help=">1 serves the feed through the sharded StreamServer",
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--out", default=None, help="write the outcome as JSON")

    commands.add_parser("list", help="list datasets, models and methods")

    memory = commands.add_parser("memory", help="Section III-D footprint of a model")
    memory.add_argument("--model", default="vgg16", choices=sorted(MODEL_REGISTRY))
    memory.add_argument("--sparsity", type=float, default=0.9)
    memory.add_argument("--timesteps", type=int, default=5)
    memory.add_argument("--width-mult", type=float, default=1.0)
    memory.add_argument("--image-size", type=int, default=32)
    return parser


def _config_from_args(args: argparse.Namespace, method: str):
    return scaled_config(
        args.dataset,
        args.model,
        method,
        args.sparsity,
        initial_sparsity=args.initial_sparsity,
        epochs=args.epochs,
        timesteps=args.timesteps,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        width_mult=args.width_mult,
        image_size=args.image_size,
        train_samples=args.train_samples,
        test_samples=args.test_samples,
        update_frequency=args.update_frequency,
        seed=args.seed,
        encoder=args.encoder,
        execution=args.execution,
    )


def _command_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.method)
    outcome = run_method(
        config,
        verbose=not args.quiet,
        checkpoint_path=args.checkpoint,
    )
    summary = {
        "dataset": args.dataset,
        "model": args.model,
        "method": args.method,
        "target_sparsity": args.sparsity,
        "final_sparsity": outcome.final_sparsity,
        "final_accuracy": outcome.final_accuracy,
        "best_accuracy": outcome.best_accuracy,
        "epochs_trained": len(outcome.history),
        "history": [stats.as_dict() for stats in outcome.history],
    }
    print(
        format_table(
            ["dataset", "model", "method", "sparsity", "test_acc"],
            [(args.dataset, args.model, args.method,
              f"{outcome.final_sparsity:.3f}", outcome.final_accuracy)],
        )
    )
    if args.out:
        save_json(args.out, summary)
        print(f"wrote {args.out}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    methods = args.method or list(METHOD_CHOICES)
    base = _config_from_args(args, methods[0])
    configs = sweep_configs(base, methods)
    if args.backend == "queue":
        outcomes = run_sweep(
            configs,
            jobs=args.jobs,
            backend="queue",
            spool=args.spool,
            **_queue_params(args),
        )
    else:
        stray = [
            flag
            for flag, value in (
                ("--spool", args.spool),
                ("--lease-seconds", args.lease_seconds),
                ("--max-attempts", args.max_attempts),
                ("--backoff-seconds", args.backoff_seconds),
            )
            if value is not None
        ]
        if stray:
            print(
                f"error: {', '.join(stray)} require(s) --backend queue "
                "(the local backend has no spool, leases or retries)",
                file=sys.stderr,
            )
            return 2
        outcomes = run_sweep(configs, jobs=args.jobs)
    rows = [
        (
            config.dataset,
            config.model,
            config.method,
            f"{outcome.final_sparsity:.3f}",
            outcome.final_accuracy,
        )
        for config, outcome in zip(configs, outcomes)
    ]
    print(
        format_table(
            ["dataset", "model", "method", "sparsity", "test_acc"],
            rows,
            title=f"sweep over {len(configs)} runs (jobs={args.jobs})",
        )
    )
    if args.out:
        payload = [
            {
                "dataset": config.dataset,
                "model": config.model,
                "method": config.method,
                "target_sparsity": config.sparsity,
                "final_sparsity": outcome.final_sparsity,
                "final_accuracy": outcome.final_accuracy,
                "best_accuracy": outcome.best_accuracy,
                "epochs_trained": len(outcome.history),
            }
            for config, outcome in zip(configs, outcomes)
        ]
        save_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


def _queue_params(args: argparse.Namespace) -> dict:
    """Queue knobs from flags, with defaults for the ones not passed."""
    return {
        "lease_seconds": (
            DEFAULT_LEASE_SECONDS if args.lease_seconds is None else args.lease_seconds
        ),
        "max_attempts": (
            DEFAULT_MAX_ATTEMPTS if args.max_attempts is None else args.max_attempts
        ),
        "backoff_seconds": (
            DEFAULT_BACKOFF_SECONDS if args.backoff_seconds is None else args.backoff_seconds
        ),
    }


def _queue_from_args(args: argparse.Namespace) -> JobQueue:
    return JobQueue(args.spool, **_queue_params(args))


def _command_worker(args: argparse.Namespace) -> int:
    queue = _queue_from_args(args)
    worker = QueueWorker(queue, checkpoint_every=args.checkpoint_every)
    completed = worker.run(max_jobs=args.max_jobs, idle_timeout=args.idle_timeout)
    tail = f", {worker.jobs_failed} failed" if worker.jobs_failed else ""
    print(f"worker {worker.worker_id}: completed {completed} job(s){tail}")
    failures = queue.failures()
    if failures:
        for job_id, error in sorted(failures.items()):
            print(f"FAILED {job_id}: {error}")
        return 1
    return 0


def _command_sweep_status(args: argparse.Namespace) -> int:
    queue = _queue_from_args(args)
    reaped = queue.reap_expired()
    status = queue.status()
    print(
        format_table(
            ["jobs", "pending", "claimed", "requeue", "results", "done", "failed"],
            [(status.jobs, status.pending, status.claimed, status.requeue,
              status.results, status.done, status.failed)],
            title=f"spool {args.spool}",
        )
    )
    if reaped:
        print(f"reaped {len(reaped)} expired lease(s): {', '.join(reaped)}")
    if args.jobs_detail:
        rows = []
        for job_id, entry in queue.job_states().items():
            note = entry.get("error") or entry.get("worker") or ""
            if entry.get("lease_remaining") is not None:
                note += f" (lease {entry['lease_remaining']:.1f}s)"
            rows.append((job_id, entry["state"], entry.get("attempt", 1), note))
        print(format_table(["job", "state", "attempt", "detail"], rows))
    return 0 if status.failed == 0 else 1


def _load_artifact(load):
    """``load()``; a missing, torn or mismatched artifact exits 2 with one line."""
    try:
        return load()
    except (OSError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _serving_registry(args: argparse.Namespace):
    """Registry with the artifact from ``args`` under name 'model'.

    Returns ``(registry, config, session)``.  The session is built here,
    in the main thread, so a bad artifact fails once instead of
    crashing every server worker that would build it later.
    """
    from .serve import ModelRegistry

    if (args.checkpoint is None) == (args.package is None):
        raise SystemExit(
            "error: pass exactly one of --checkpoint or --package"
        )
    config = _config_from_args(args, args.method)
    registry = ModelRegistry()

    def load():
        if args.package is not None:
            registry.load_package(
                "model", args.package, precision=args.precision,
                max_batch=args.max_batch,
            )
        else:
            registry.load_checkpoint(
                "model", config, args.checkpoint, execution=args.execution,
                compact=args.compact, max_batch=args.max_batch,
            )
        return registry.session("model")

    return registry, config, _load_artifact(load)


def _command_export(args: argparse.Namespace) -> int:
    from .experiments.runner import build_experiment_model
    from .sparse.packaging import spec_from_config, write_package
    from .train.checkpoint import restore_manager

    config = _config_from_args(args, args.method)
    model = build_experiment_model(config)
    manager = _load_artifact(
        lambda: restore_manager(args.checkpoint, model, args.execution)
    )
    model.eval()
    summary = write_package(
        args.out, model, manager, spec_from_config(config),
        precision=args.precision,
    )
    storage = summary["storage"]
    print(
        format_table(
            ["precision", "layers", "dense_entries", "file_bytes",
             "layer_bytes", "dense_bytes"],
            [(summary["precision"], summary["layers"],
              summary["dense_entries"], summary["file_bytes"],
              storage["layer_bytes"], storage["dense_bytes"])],
            title=f"packed {args.out}",
        )
    )
    return 0


def _command_infer(args: argparse.Namespace) -> int:
    from .experiments.runner import build_loaders

    _, config, session = _serving_registry(args)
    _, test_loader, _ = build_loaders(config)
    correct = 0
    seen = 0
    for images, labels in test_loader:
        predictions = session.predict(images.data).argmax(axis=1)
        correct += int((predictions == labels).sum())
        seen += len(labels)
    accuracy = correct / seen if seen else 0.0
    dispatch = session.dispatch_report()
    storage = session.storage_report()
    print(
        format_table(
            ["layer", "shape", "density", "route", "cutoff_source"],
            [(d["layer"], "x".join(map(str, d["shape"])), d["density"],
              d["route"], d["cutoff_source"]) for d in dispatch],
            title=f"serving dispatch (execution={args.execution}, "
                  f"compact={args.compact})",
        )
    )
    print(f"test accuracy: {accuracy:.4f} over {seen} samples")
    if args.out:
        save_json(args.out, {
            "accuracy": accuracy,
            "samples": seen,
            "compact": args.compact,
            "execution": args.execution,
            "dispatch": dispatch,
            "storage": storage,
        })
        print(f"wrote {args.out}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import threading
    import time as _time

    import numpy as np

    from .experiments.runner import build_loaders
    from .serve import InferenceServer

    if args.requests < 1 or args.clients < 1:
        print("error: --requests and --clients must be >= 1", file=sys.stderr)
        return 2
    registry, config, _ = _serving_registry(args)
    _, test_loader, _ = build_loaders(config)
    samples = np.concatenate([images.data for images, _ in test_loader], axis=0)
    server = InferenceServer(
        lambda: registry.session("model"),
        workers=args.workers,
        max_batch=args.max_batch,
        max_latency_s=args.max_latency_ms / 1000.0,
    )
    latencies: List[Optional[float]] = []  # None marks a failed request
    latency_lock = threading.Lock()

    def client(count: int) -> None:
        rng = np.random.default_rng()
        for _ in range(count):
            sample = samples[rng.integers(0, len(samples))]
            begin = _time.perf_counter()
            try:
                server.predict(sample, timeout=60.0)
                elapsed = _time.perf_counter() - begin
            except Exception:
                elapsed = None
            with latency_lock:
                latencies.append(elapsed)

    per_client = [args.requests // args.clients] * args.clients
    per_client[0] += args.requests % args.clients
    server.start()
    wall_begin = _time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(count,)) for count in per_client
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = _time.perf_counter() - wall_begin
    server.stop()
    stats = server.stats()
    failed = latencies.count(None)
    latencies = [latency for latency in latencies if latency is not None]
    # When every request failed there is no latency to take a percentile of.
    p50, p99 = (
        float(np.percentile(latencies, q)) * 1000.0 if latencies else None
        for q in (50, 99)
    )
    throughput = len(latencies) / wall if wall > 0 else 0.0
    print(
        format_table(
            ["requests", "failed", "workers", "max_batch", "p50_ms", "p99_ms",
             "req_per_s", "batches", "restarts"],
            [(len(latencies), failed, args.workers, args.max_batch,
              f"{p50:.2f}" if latencies else "-",
              f"{p99:.2f}" if latencies else "-", f"{throughput:.1f}",
              stats["batches"], stats["restarts"])],
            title=f"serving load (execution={args.execution}, "
                  f"compact={args.compact})",
        )
    )
    if args.out:
        save_json(args.out, {
            "requests": len(latencies),
            "failed": failed,
            "workers": args.workers,
            "max_batch": args.max_batch,
            "clients": args.clients,
            "p50_ms": p50,
            "p99_ms": p99,
            "throughput_rps": throughput,
            "stats": stats,
            "compact": args.compact,
            "execution": args.execution,
        })
        print(f"wrote {args.out}")
    if failed:
        print(f"error: {failed} of {args.requests} requests failed", file=sys.stderr)
        return 1
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    print("datasets:", ", ".join(sorted(DATASET_SPECS)))
    print("models  :", ", ".join(sorted(MODEL_REGISTRY)))
    print("methods :", ", ".join(METHOD_CHOICES))
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    import time as _time

    import numpy as np

    from .data.telemetry import make_telemetry_stream
    from .snn.models import SpikingMLP
    from .sparse.engine import SparsityManager
    from .stream import AdaptiveStreamSession, StreamFaultInjector, StreamSession

    def build_session():
        model = SpikingMLP(
            in_features=args.channels,
            num_classes=args.classes,
            hidden=(args.hidden,),
            timesteps=max(1, args.window),
            rng=np.random.default_rng(args.seed + 2),
        )
        manager = SparsityManager(model, rng=np.random.default_rng(args.seed + 3))
        manager.init_random(
            {name: 1.0 - args.sparsity for name in manager.states}
        )
        common = dict(
            window=args.window,
            stride=args.stride,
            encoder=args.encoder,
            ttl=args.ttl,
            reset_policy=args.reset_policy,
            seed=args.seed,
        )
        if args.adapt:
            return AdaptiveStreamSession(
                model, manager, adapt_every=args.adapt_every, **common
            )
        manager.freeze()
        return StreamSession(model, manager=manager, **common)

    feed = make_telemetry_stream(
        num_streams=args.streams,
        num_channels=args.channels,
        num_events=args.events,
        rate_hz=args.rate_hz,
        seed=args.seed,
    )
    events = iter(feed)
    injector = None
    if args.fault:
        injector = StreamFaultInjector(args.fault, seed=args.seed)
        events = injector.apply(events)

    started = _time.perf_counter()
    if args.workers > 1:
        from .serve import StreamServer

        with StreamServer(build_session, workers=args.workers) as server:
            results = server.process_stream(events)
            stats = server.stats()
        per_stream = stats["streams"]
        restarts = stats["restarts"]
        execution = stats["execution"]
    else:
        session = build_session()
        results = [r for event in events if (r := session.process(event)) is not None]
        per_stream = session.stats()
        restarts = 0
        execution = [session.execution]
    elapsed = _time.perf_counter() - started

    total_events = sum(s["events"] for s in per_stream.values())
    summary = {
        "events": total_events,
        "windows": len(results),
        "events_per_sec": total_events / elapsed if elapsed > 0 else 0.0,
        "elapsed_s": elapsed,
        "workers": args.workers,
        "restarts": restarts,
        "stale_resets": sum(s["stale_resets"] for s in per_stream.values()),
        "fault_counts": injector.counts if injector is not None else {},
        "execution": execution,
        "streams": per_stream,
    }
    if args.adapt and args.workers <= 1:
        summary["adaptation_rounds"] = session.adaptation_rounds
    rows = [
        (sid, s["events"], s["windows"], s["stale_resets"])
        for sid, s in sorted(per_stream.items())
    ]
    print(
        format_table(
            ["stream", "events", "windows", "stale_resets"],
            rows,
            title=(
                f"streamed {total_events} events -> {len(results)} windows "
                f"({summary['events_per_sec']:.0f} ev/s, window={args.window}, "
                f"encoder={args.encoder})"
            ),
        )
    )
    if args.out:
        save_json(args.out, summary)
        print(f"wrote {args.out}")
    return 0


def _command_memory(args: argparse.Namespace) -> int:
    model = build_model(
        args.model,
        num_classes=10,
        image_size=args.image_size,
        width_mult=args.width_mult,
    )
    report = model_footprint(model, sparsity=args.sparsity, timesteps=args.timesteps)
    print(
        format_table(
            ["model", "weights", "sparsity", "timesteps", "train_MB"],
            [(
                args.model,
                f"{report.total_weights:,}",
                f"{report.sparsity:.0%}",
                report.timesteps,
                report.megabytes,
            )],
            title="Section III-D training memory footprint",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "train_samples"):
        # The synthetic datasets need one sample per class; say so as a
        # usage error instead of a traceback from the data layer.
        classes = SCALED_NUM_CLASSES[args.dataset]
        for flag in ("train_samples", "test_samples"):
            if getattr(args, flag) < classes:
                parser.error(
                    f"--{flag.replace('_', '-')} must be at least the {classes} "
                    f"classes of {args.dataset}, got {getattr(args, flag)}"
                )
    handlers = {
        "run": _command_run,
        "infer": _command_infer,
        "serve": _command_serve,
        "export": _command_export,
        "sweep": _command_sweep,
        "worker": _command_worker,
        "sweep-status": _command_sweep_status,
        "stream": _command_stream,
        "list": _command_list,
        "memory": _command_memory,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
