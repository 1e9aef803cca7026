"""Packed-artifact benchmark: .reprom size, cold-load, quantized serving.

Measures what :mod:`repro.sparse.packaging` buys over checkpoint-based
serving on the standard bench MLP (width 768, 90% unstructured
sparsity):

* **artifact size** — int8 + delta/varint ``.reprom`` bytes vs the
  float32 ``save_checkpoint`` pair (``.npz`` + ``.json``);
* **cold load** — wall time from artifact on disk to a frozen
  :class:`~repro.serve.InferenceSession` ready to predict: npz
  decompress + re-init + mask load vs mmap + zero-copy bind;
* **quantized serving** — throughput of the int8 package (served at the
  default f32 runtime, values pre-scaled at load) against the
  frozen-f32 checkpoint session, with a hard max-abs-error assert —
  a fast wrong artifact is not a fast artifact;
* **stored-precision runtime** — the same int8 package served with its
  values left at int8 in the map (per-row scales applied after each
  CSR product), against its pre-scaled f32 runtime; the f16 package
  served at f16 is reported beside it.  Both share the error assert.

Emits ``BENCH_packaging.json``::

    PYTHONPATH=src python benchmarks/bench_packaging.py --out BENCH_packaging.json

``--check BENCH_packaging.json`` re-measures and exits non-zero if a
headline ratio fell more than 15% below the committed number (ratios
only; absolute times are host-dependent).
"""

import os
import sys
import tempfile
from functools import partial
from types import SimpleNamespace

import numpy as np

from repro.serve import InferenceSession
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.sparse.packaging import PackedModel, build_packed_runtime, write_package
from repro.train.checkpoint import restore_manager, save_checkpoint

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:  # spec loaders do not put it there
    sys.path.insert(0, BENCH_DIR)
import _gate  # noqa: E402

#: Bench MLP geometry — identical to bench_serving's unstructured cell.
MLP_WIDTH = 768
NUM_CLASSES = 32
SPARSITY = 0.9
TIMESTEPS = 2
BATCH = 8
#: Quantized-output error bound vs the frozen-f32 session (hard assert
#: on every cell in ERROR_BOUND_CELLS).
INT8_ERROR_BOUND = 1e-2
ERROR_BOUND_CELLS = ("int8_runtime_f32", "int8_runtime_int8", "f16_runtime_f16")
#: Gated metrics — ratios only, higher is better.
HEADLINE_METRICS = (
    "artifact_size_ratio",
    "cold_load_speedup",
    "int8_throughput_ratio",
    "int8_stored_throughput_ratio",
)
GATE = _gate.Gate(HEADLINE_METRICS)

MODEL_SPEC = {
    "model": "mlp",
    "kwargs": {
        "in_features": MLP_WIDTH,
        "num_classes": NUM_CLASSES,
        "hidden": [MLP_WIDTH, MLP_WIDTH],
        "timesteps": TIMESTEPS,
    },
    "encoder": "direct",
    "seed": 0,
}


def build_masked_mlp(seed=0, width=MLP_WIDTH, sparsity=SPARSITY):
    """The bench model with random unstructured masks, CSR execution."""
    model = SpikingMLP(
        width, NUM_CLASSES, hidden=(width, width), timesteps=TIMESTEPS,
        rng=np.random.default_rng(seed),
    )
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 1.0 - sparsity for name in manager.states})
    manager.set_execution("csr")
    model.eval()
    return model, manager


def checkpoint_bytes(path):
    """Total on-disk bytes of a save_checkpoint pair (.npz + .json)."""
    total = os.path.getsize(path)
    sidecar = os.path.splitext(path)[0] + ".json"
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def load_checkpoint_session(path, width=MLP_WIDTH, max_batch=BATCH):
    """Checkpoint → frozen session, the registry ``load_checkpoint`` way.

    The bench MLP is not an experiment-config model, so this rebuilds
    it by hand: real init draws, then ``restore_manager`` (npz
    decompress, mask load) and freeze.  That is exactly the cold-start
    cost ``load_package`` competes against.
    """
    model = SpikingMLP(
        width, NUM_CLASSES, hidden=(width, width), timesteps=TIMESTEPS,
        rng=np.random.default_rng(0),
    )
    manager = restore_manager(path, model, execution="csr")
    return InferenceSession(model, manager, max_batch=max_batch)


def load_package_session(path, precision=None, max_batch=BATCH):
    """Package → frozen session (mmap open included: true cold load)."""
    package = PackedModel(path)
    model, manager = build_packed_runtime(package, precision=precision)
    return InferenceSession(model, manager, max_batch=max_batch)


def _p50_cell(times, batch):
    seconds = float(np.percentile(times, 50))
    return {"p50_ms": seconds * 1e3, "throughput_rps": batch / seconds}


def run_comparison(repeats=20, load_repeats=5, width=MLP_WIDTH):
    """Full packaging grid; returns the BENCH_packaging payload."""
    model, manager = build_masked_mlp(width=width)
    spec = dict(MODEL_SPEC)
    spec["kwargs"] = dict(MODEL_SPEC["kwargs"],
                          in_features=width, hidden=[width, width])
    inputs = np.random.default_rng(9).standard_normal(
        (BATCH, width)).astype(np.float32)

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "model.npz")
        save_checkpoint(ckpt, model, method=SimpleNamespace(masks=manager))
        packages = {}
        for precision in ("f32", "f16", "int8"):
            out = os.path.join(tmp, f"model_{precision}.reprom")
            summary = write_package(out, model, manager, spec,
                                    precision=precision)
            packages[precision] = summary

        ckpt_bytes = checkpoint_bytes(ckpt)
        int8_path = packages["int8"]["path"]

        # --- cold load: checkpoint factory vs package mmap ---------------
        # (the untimed first call warms the page cache and imports, so
        # both sides start equal)
        ckpt_load_s, pkg_load_s = (
            float(np.median(times)) for times in _gate.time_interleaved([
                lambda: load_checkpoint_session(ckpt, width=width),
                lambda: load_package_session(int8_path),
            ], load_repeats)
        )

        # --- serving: frozen-f32 checkpoint vs packed runtimes ----------
        sessions = {
            "checkpoint_f32": load_checkpoint_session(ckpt, width=width),
            "int8_runtime_f32": load_package_session(int8_path),
            "int8_runtime_int8": load_package_session(
                int8_path, precision="int8"),
            "f16_runtime_f16": load_package_session(
                packages["f16"]["path"], precision="f16"),
            "f32_runtime_f32": load_package_session(packages["f32"]["path"]),
        }
        reference = sessions["checkpoint_f32"].predict(inputs)
        errors = {
            label: float(np.abs(session.predict(inputs) - reference).max())
            for label, session in sessions.items() if label != "checkpoint_f32"
        }
        # Every cell is a sub-millisecond CSR path, so the gated ratios
        # need a higher floor on repeats than the CLI default.
        times = _gate.time_interleaved(
            [partial(session.predict, inputs) for session in sessions.values()],
            max(repeats, 60),
        )
        cells = {label: _p50_cell(seconds, BATCH)
                 for label, seconds in zip(sessions, times)}

        for label in ERROR_BOUND_CELLS:
            if errors[label] > INT8_ERROR_BOUND:
                raise AssertionError(
                    f"{label} serving error {errors[label]:.3e} exceeds the "
                    f"{INT8_ERROR_BOUND:.0e} bound — quantization is broken"
                )

        payload = {
            "bench": "packaging_size_coldload_quantized",
            "width": width,
            "sparsity": SPARSITY,
            "repeats": repeats,
            "checkpoint_bytes": ckpt_bytes,
            "package_bytes": {
                precision: packages[precision]["file_bytes"]
                for precision in packages
            },
            "cold_load": {
                "checkpoint_s": ckpt_load_s,
                "package_s": pkg_load_s,
            },
            "cells": cells,
            "max_abs_error": errors,
            "artifact_size_ratio":
                ckpt_bytes / packages["int8"]["file_bytes"],
            "cold_load_speedup": ckpt_load_s / pkg_load_s,
            "int8_throughput_ratio":
                cells["int8_runtime_f32"]["throughput_rps"]
                / cells["checkpoint_f32"]["throughput_rps"],
            "int8_stored_throughput_ratio":
                cells["int8_runtime_int8"]["throughput_rps"]
                / cells["int8_runtime_f32"]["throughput_rps"],
        }
    return payload


def main(argv=None):
    parser = _gate.parser(
        "packed .reprom artifact: size, cold load, quantized serving",
        "BENCH_packaging.json", repeats=20,
    )
    parser.add_argument("--load-repeats", type=_gate.positive_int, default=5)
    parser.add_argument("--width", type=int, default=MLP_WIDTH)
    args = parser.parse_args(argv)
    payload = run_comparison(repeats=args.repeats,
                             load_repeats=args.load_repeats,
                             width=args.width)
    print(f"checkpoint (f32 npz):   {payload['checkpoint_bytes']:>9d} B")
    for precision, size in sorted(payload["package_bytes"].items()):
        print(f".reprom {precision:>4s}:          {size:>9d} B")
    print(
        f"artifact size ratio (ckpt / int8): "
        f"{payload['artifact_size_ratio']:.2f}x"
    )
    cold = payload["cold_load"]
    print(
        f"cold load: checkpoint {cold['checkpoint_s']*1e3:.1f}ms  "
        f"package {cold['package_s']*1e3:.1f}ms  "
        f"speedup {payload['cold_load_speedup']:.2f}x"
    )
    for label, cell in payload["cells"].items():
        err = payload["max_abs_error"].get(label)
        err_text = f"  max_err {err:.2e}" if err is not None else ""
        print(
            f"{label:>22s}: p50 {cell['p50_ms']:7.2f}ms  "
            f"{cell['throughput_rps']:8.1f} req/s{err_text}"
        )
    print(f"int8 throughput ratio vs frozen-f32: "
          f"{payload['int8_throughput_ratio']:.3f}x")
    print(f"int8 stored-precision vs pre-scaled f32: "
          f"{payload['int8_stored_throughput_ratio']:.3f}x")
    return _gate.finish(args, payload, GATE)


if __name__ == "__main__":
    raise SystemExit(main())
