"""Serving-path benchmark: dense vs compact-structured vs frozen-CSR.

Times end-to-end :class:`~repro.serve.InferenceSession` predictions —
the exact code path ``repro serve`` workers run — across batch sizes
for three execution styles:

* **masked dense**: weights zeroed by the mask but every kernel still
  runs at the dense shape (the naive way to serve a sparse checkpoint);
* **frozen CSR**: unstructured sparsity served through the read-only
  CSR fast path (``execution="csr"``; calibrated ``auto`` dispatch on
  small hosts routes these shapes dense, so the cell forces the route
  it is measuring);
* **compact structured**: filter-pruned models with the dead filters
  *sliced out* (:func:`~repro.sparse.structured.compact_model`), so the
  dense kernels are genuinely smaller.

Emits ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_serving.py --out BENCH_serving.json

with p50/p99 latency and throughput per (variant, batch) cell, a
closed-loop :class:`~repro.serve.InferenceServer` measurement, and the
headline speedups the regression gate compares::

    PYTHONPATH=src python benchmarks/bench_serving.py --check BENCH_serving.json

re-times the grid and exits non-zero if a headline speedup fell more
than 15% below the committed numbers (tier-1 runs the gate mechanism
via a smoke test; only ratios are gated, never absolute times).
"""

import os
import sys
import time

import numpy as np

from repro.serve import InferenceServer, InferenceSession
from repro.snn.models import SpikingConvNet, SpikingMLP
from repro.sparse import SparsityManager, compact_model

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:  # spec loaders do not put it there
    sys.path.insert(0, BENCH_DIR)
import _gate  # noqa: E402

#: Unstructured MLP cell: width of the hidden layers.
MLP_WIDTH = 768
#: Unstructured sparsity of the MLP cell (the paper's headline regime).
UNSTRUCTURED_SPARSITY = 0.9
#: Filter sparsity of the structured conv cell.
FILTER_SPARSITY = 0.5
#: Conv cell geometry.
CONV_CHANNELS = (16, 32)
CONV_IMAGE_SIZE = 16
#: Batch sizes swept per variant.
BATCH_SIZES = (1, 4, 8, 16)
#: Gated metrics — all ratios (machine-robust), higher is better.
HEADLINE_METRICS = (
    "csr_p50_speedup_at_90",
    "compact_p50_speedup_at_50",
    "batch_throughput_gain",
)
GATE = _gate.Gate(HEADLINE_METRICS)


def _unstructured_mask_densities(manager, sparsity):
    return {name: 1.0 - sparsity for name in manager.states}


def build_mlp_session(
    execution,
    width=MLP_WIDTH,
    sparsity=UNSTRUCTURED_SPARSITY,
    max_batch=8,
    timesteps=2,
    seed=0,
):
    """Fresh frozen MLP session; same seed => identical weights/masks."""
    model = SpikingMLP(
        width, 32, hidden=(width, width), timesteps=timesteps,
        rng=np.random.default_rng(seed),
    )
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random(_unstructured_mask_densities(manager, sparsity))
    manager.set_execution(execution)
    return InferenceSession(model, manager, max_batch=max_batch)


def _filter_masks(manager, filter_sparsity, rng):
    """Row (filter) masks for conv layers; linear layers stay dense."""
    masks = {}
    for name, state in manager.states.items():
        shape = state.parameter.data.shape
        mask = np.ones(shape, dtype=np.float32)
        if len(shape) == 4:
            dead = rng.choice(
                shape[0],
                size=max(1, int(round(filter_sparsity * shape[0]))),
                replace=False,
            )
            mask[dead] = 0.0
        masks[name] = mask
    return masks


def build_conv_session(
    compact,
    filter_sparsity=FILTER_SPARSITY,
    channels=CONV_CHANNELS,
    image_size=CONV_IMAGE_SIZE,
    max_batch=8,
    timesteps=2,
    seed=0,
):
    """Fresh frozen ConvNet session, filter-pruned; optionally compacted."""
    model = SpikingConvNet(
        num_classes=16, in_channels=3, image_size=image_size,
        channels=channels, timesteps=timesteps,
        rng=np.random.default_rng(seed),
    )
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    for name, mask in _filter_masks(
        manager, filter_sparsity, np.random.default_rng(seed + 2)
    ).items():
        manager.set_mask(name, mask)
    manager.apply_masks()
    manager.set_execution("dense")
    if compact:
        manager = compact_model(model, manager)
    return InferenceSession(model, manager, max_batch=max_batch)


def _cell(variant, batch, times):
    seconds = np.asarray(times)
    p50 = float(np.percentile(seconds, 50))
    return {
        "variant": variant,
        "batch": batch,
        "p50_ms": p50 * 1e3,
        "p99_ms": float(np.percentile(seconds, 99)) * 1e3,
        "throughput_rps": batch / p50,
    }


def _sample_inputs(session, batch, seed=9):
    shape = None
    for module in session.model.modules():
        weight = getattr(module, "weight", None)
        if weight is None:
            continue
        if weight.data.ndim == 4:
            shape = (batch, weight.data.shape[1],
                     CONV_IMAGE_SIZE, CONV_IMAGE_SIZE)
        else:
            shape = (batch, weight.data.shape[1])
        break
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def _compare_variants(make_baseline, make_candidate, batch_sizes, repeats,
                      baseline_name, candidate_name, tolerance=1e-4):
    """Latency cells for two variants of the same weights, plus a
    correctness guard: a fast wrong serving path is not a fast path."""
    cells = []
    for batch in batch_sizes:
        baseline = make_baseline(batch)
        candidate = make_candidate(batch)
        inputs = _sample_inputs(baseline, batch)
        reference = baseline.predict(inputs)
        produced = candidate.predict(inputs)
        max_err = float(np.abs(produced - reference).max())
        bound = tolerance * max(1.0, float(np.abs(reference).max()))
        if max_err > bound:
            raise AssertionError(
                f"{candidate_name} diverges from {baseline_name}: "
                f"max abs error {max_err:.3e} > {bound:.3e} at batch {batch}"
            )
        baseline_times, candidate_times = _gate.time_interleaved(
            [lambda: baseline.predict(inputs),
             lambda: candidate.predict(inputs)], repeats)
        cells.append(_cell(baseline_name, batch, baseline_times))
        cells.append(_cell(candidate_name, batch, candidate_times))
    return cells


def _speedup(cells, baseline_name, candidate_name):
    base = {c["batch"]: c["p50_ms"] for c in cells if c["variant"] == baseline_name}
    cand = {c["batch"]: c["p50_ms"] for c in cells if c["variant"] == candidate_name}
    return max(base[batch] / cand[batch] for batch in base)


def measure_server(session_factory, requests=48, clients=4, workers=2,
                   max_batch=8, sample=None):
    """Closed-loop latency through the full batcher/worker/supervisor
    path (absolute times: reported, never gated)."""
    import threading

    latencies = []
    lock = threading.Lock()

    def client(count):
        for _ in range(count):
            start = time.perf_counter()
            server.predict(sample, timeout=60.0)
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    with InferenceServer(
        session_factory, workers=workers, max_batch=max_batch
    ) as server:
        share = requests // clients
        counts = [share + (1 if i < requests % clients else 0)
                  for i in range(clients)]
        threads = [threading.Thread(target=client, args=(count,))
                   for count in counts if count]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
    seconds = np.asarray(latencies)
    return {
        "requests": requests,
        "clients": clients,
        "workers": workers,
        "max_batch": max_batch,
        "p50_ms": float(np.percentile(seconds, 50)) * 1e3,
        "p99_ms": float(np.percentile(seconds, 99)) * 1e3,
        "throughput_rps": len(seconds) / float(seconds.sum() / clients),
        "batches": stats["batches"],
        "restarts": stats["restarts"],
    }


def run_comparison(
    width=MLP_WIDTH,
    sparsity=UNSTRUCTURED_SPARSITY,
    filter_sparsity=FILTER_SPARSITY,
    channels=CONV_CHANNELS,
    batch_sizes=BATCH_SIZES,
    repeats=20,
    include_server=True,
):
    """Full serving grid; returns the BENCH_serving payload."""
    mlp_cells = _compare_variants(
        lambda b: build_mlp_session("dense", width=width, sparsity=sparsity,
                                    max_batch=b),
        lambda b: build_mlp_session("csr", width=width, sparsity=sparsity,
                                    max_batch=b),
        batch_sizes, repeats, "masked_dense", "frozen_csr",
    )
    conv_repeats = max(3, repeats // 2)
    conv_cells = _compare_variants(
        lambda b: build_conv_session(False, filter_sparsity=filter_sparsity,
                                     channels=channels, max_batch=b),
        lambda b: build_conv_session(True, filter_sparsity=filter_sparsity,
                                     channels=channels, max_batch=b),
        batch_sizes, conv_repeats, "masked_dense", "compact_structured",
    )
    csr_throughputs = [c["throughput_rps"] for c in mlp_cells
                       if c["variant"] == "frozen_csr"]
    payload = {
        "bench": "serving_dense_vs_compact_vs_csr",
        "repeats": repeats,
        "mlp": {
            "width": width,
            "sparsity": sparsity,
            "cells": mlp_cells,
        },
        "conv": {
            "channels": list(channels),
            "filter_sparsity": filter_sparsity,
            "cells": conv_cells,
        },
        "csr_p50_speedup_at_90": _speedup(mlp_cells, "masked_dense", "frozen_csr"),
        "compact_p50_speedup_at_50": _speedup(
            conv_cells, "masked_dense", "compact_structured"
        ),
        # Micro-batching is the point of the server: throughput at the
        # best batch size over single-sample throughput.
        "batch_throughput_gain": max(csr_throughputs) / csr_throughputs[0],
    }
    if include_server:
        payload["server"] = measure_server(
            lambda: build_mlp_session("csr", width=width, sparsity=sparsity,
                                      max_batch=8),
            sample=_sample_inputs(
                build_mlp_session("csr", width=width, sparsity=sparsity), 1
            )[0],
        )
    return payload


def main(argv=None):
    parser = _gate.parser(
        "serving-path comparison: dense vs compact vs frozen CSR",
        "BENCH_serving.json", repeats=20,
    )
    parser.add_argument("--width", type=int, default=MLP_WIDTH)
    parser.add_argument("--no-server", action="store_true",
                        help="skip the closed-loop server measurement")
    args = parser.parse_args(argv)
    payload = run_comparison(
        width=args.width, repeats=args.repeats,
        include_server=not args.no_server,
    )
    for group in ("mlp", "conv"):
        for cell in payload[group]["cells"]:
            print(
                f"{group} {cell['variant']:>18s} batch={cell['batch']:>2d}: "
                f"p50 {cell['p50_ms']:7.2f}ms  p99 {cell['p99_ms']:7.2f}ms  "
                f"{cell['throughput_rps']:8.1f} req/s"
            )
    print(
        f"frozen-CSR p50 speedup at {UNSTRUCTURED_SPARSITY:.0%} sparsity: "
        f"{payload['csr_p50_speedup_at_90']:.2f}x"
    )
    print(
        f"compact-structured p50 speedup at {FILTER_SPARSITY:.0%} filter "
        f"sparsity: {payload['compact_p50_speedup_at_50']:.2f}x"
    )
    print(f"batch throughput gain: {payload['batch_throughput_gain']:.2f}x")
    if "server" in payload:
        server = payload["server"]
        print(
            f"server ({server['workers']} workers, {server['clients']} "
            f"clients): p50 {server['p50_ms']:.2f}ms  "
            f"p99 {server['p99_ms']:.2f}ms  "
            f"{server['throughput_rps']:.1f} req/s  "
            f"{server['batches']} batches  {server['restarts']} restarts"
        )
    return _gate.finish(args, payload, GATE)


if __name__ == "__main__":
    raise SystemExit(main())
