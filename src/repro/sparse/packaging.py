"""Packed serving artifacts: the single-file ``.reprom`` format.

The paper's §III-D storage model counts CSR bits; this module makes
those bytes real.  A ``.reprom`` file stores every sparse layer as

* **delta + varint encoded column indices** — within a row the sorted
  column indices are gap-coded (the first index of each row is stored
  absolute), then LEB128 varint packed, so a 90%-sparse matrix pays
  about one byte per non-zero instead of four;
* **quantized values** — ``int8`` (per-row absmax calibration, one
  float32 scale per row, max abs error ≤ scale/2), ``f16``, or raw
  ``f32``;
* **f16 dense entries** — biases, batch-norm scales and running stats
  are stored (and served) as float16; integer buffers keep their dtype;

plus the model spec, execution mode and dispatch-calibration table, all
in one aligned file:

.. code-block:: text

    offset 0   magic  b"REPROM\\x00\\x01"                (8 bytes)
    offset 8   metadata length N, little-endian uint64  (8 bytes)
    offset 16  metadata JSON (model spec, manifest)     (N bytes)
    ...        zero padding to a 64-byte boundary
    data       tensor blobs, each 64-byte aligned; the manifest in the
               metadata records (offset, nbytes, dtype, shape) per blob

Because every tensor sits at an aligned offset,
:class:`PackedModel` opens the file with ``np.memmap`` and serves
**zero-copy**: an ``f32`` artifact's CSR value buffers *are* views into
the map, and quantized artifacts served at their stored precision keep
their value, scale and bias buffers mapped as well.  Loading imports
only the model zoo and the sparse kernels — never ``repro.train`` or
``repro.experiments`` — so edge targets ship without the training
stack.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..nn.init import skip_init
from ..utils import atomic_replace
from .storage import CSRPattern

MAGIC = b"REPROM\x00\x01"
FORMAT_VERSION = 1
ALIGNMENT = 64

#: Storable / servable value precisions.
PRECISIONS = ("f32", "f16", "int8")

_VALUE_DTYPES = {"f32": np.float32, "f16": np.float16, "int8": np.int8}


# ----------------------------------------------------------------------
# Varint (LEB128) codec — vectorized, at most a handful of numpy passes
# ----------------------------------------------------------------------
def varint_encode(values: np.ndarray) -> np.ndarray:
    """LEB128-encode non-negative integers into a flat uint8 stream.

    Each value is stored little-endian in 7-bit groups; bit 7 of every
    byte is the continuation flag.  Vectorized: one pass per output
    byte position (column-index deltas need at most five).
    """
    v = np.ascontiguousarray(np.asarray(values), dtype=np.uint64)
    if np.asarray(values).size and np.asarray(values).min() < 0:
        raise ValueError("varint_encode requires non-negative values")
    if v.size == 0:
        return np.zeros(0, dtype=np.uint8)
    lengths = np.ones(v.size, dtype=np.int64)
    shifted = v >> np.uint64(7)
    while shifted.any():
        lengths += shifted != 0
        shifted >>= np.uint64(7)
    offsets = np.zeros(v.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.zeros(int(offsets[-1] + lengths[-1]), dtype=np.uint8)
    remaining = v.copy()
    position = 0
    while True:
        sel = lengths > position
        if not sel.any():
            break
        byte = (remaining[sel] & np.uint64(0x7F)).astype(np.uint8)
        more = (lengths[sel] > position + 1).astype(np.uint8) << 7
        out[offsets[sel] + position] = byte | more
        remaining >>= np.uint64(7)
        position += 1
    return out


def varint_decode(stream: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`varint_encode`; returns ``count`` uint64 values."""
    raw = np.ascontiguousarray(np.asarray(stream), dtype=np.uint8)
    if count == 0:
        if raw.size:
            raise ValueError("trailing bytes after 0 varint values")
        return np.zeros(0, dtype=np.uint64)
    if raw.size == 0:
        raise ValueError(f"empty varint stream for {count} values")
    is_last = (raw & 0x80) == 0
    if int(is_last.sum()) != count or not is_last[-1]:
        raise ValueError(
            f"corrupt varint stream: {int(is_last.sum())} terminators "
            f"for {count} values"
        )
    element = np.zeros(raw.size, dtype=np.int64)
    np.cumsum(is_last[:-1], out=element[1:])
    starts = np.flatnonzero(
        np.concatenate([[True], is_last[:-1]])
    )
    position = (np.arange(raw.size) - starts[element]).astype(np.uint64)
    contribution = (raw & 0x7F).astype(np.uint64) << (np.uint64(7) * position)
    out = np.zeros(count, dtype=np.uint64)
    # 7-bit groups occupy disjoint bit ranges, so add == bitwise-or.
    np.add.at(out, element, contribution)
    return out


# ----------------------------------------------------------------------
# Delta coding of CSR column indices (per-row reset)
# ----------------------------------------------------------------------
def delta_encode_indices(indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Gap-code CSR column indices, resetting at every row start.

    The first non-zero of each row stores its absolute column; the rest
    store the (strictly positive) gap to their predecessor.  Raises if
    any row's indices are unsorted or duplicated — the encoding is only
    lossless for well-formed CSR.
    """
    idx = np.ascontiguousarray(np.asarray(indices), dtype=np.int64)
    ptr = np.asarray(indptr, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(0, dtype=np.uint64)
    deltas = np.empty(idx.size, dtype=np.int64)
    deltas[0] = idx[0]
    np.subtract(idx[1:], idx[:-1], out=deltas[1:])
    counts = np.diff(ptr)
    starts = ptr[:-1][counts > 0]
    deltas[starts] = idx[starts]
    interior = np.ones(idx.size, dtype=bool)
    interior[starts] = False
    if (deltas[starts] < 0).any() or (deltas[interior] < 1).any():
        raise ValueError(
            "indices must be sorted and unique within each row"
        )
    return deltas.astype(np.uint64)


def delta_decode_indices(
    deltas: np.ndarray, indptr: np.ndarray, cols: int
) -> np.ndarray:
    """Inverse of :func:`delta_encode_indices` (int32 column indices)."""
    d = np.asarray(deltas, dtype=np.uint64).astype(np.int64)
    ptr = np.asarray(indptr, dtype=np.int64)
    if d.size == 0:
        return np.zeros(0, dtype=np.int32)
    running = np.cumsum(d)
    counts = np.diff(ptr)
    nonempty = counts > 0
    starts = ptr[:-1][nonempty]
    # Subtract, per row, everything accumulated before the row's
    # absolute anchor: anchor position keeps its stored value.
    base = running[starts] - d[starts]
    correction = np.repeat(base, counts[nonempty])
    indices = running - correction
    if indices.size and (indices.min() < 0 or indices.max() >= cols):
        raise ValueError(
            f"decoded column index out of range [0, {cols})"
        )
    return indices.astype(np.int32)


# ----------------------------------------------------------------------
# Quantization
# ----------------------------------------------------------------------
def quantize_rows_int8(
    values: np.ndarray, indptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row absmax int8 quantization of CSR-ordered values.

    Every row gets ``scale = max(|row|) / 127``; values are rounded to
    ``[-127, 127]``.  The reconstruction error is bounded by
    ``scale / 2`` per row (rounding never clips: the extreme value maps
    to exactly ±127).  Rows with no non-zeros (or all zeros) get scale 0.
    """
    vals = np.ascontiguousarray(np.asarray(values), dtype=np.float32)
    ptr = np.asarray(indptr, dtype=np.int64)
    rows = ptr.size - 1
    counts = np.diff(ptr)
    row_of = np.repeat(np.arange(rows), counts)
    absmax = np.zeros(rows, dtype=np.float32)
    if vals.size:
        np.maximum.at(absmax, row_of, np.abs(vals))
    scales = (absmax / 127.0).astype(np.float32)
    safe = np.where(scales > 0, scales, 1.0).astype(np.float32)
    quantized = np.clip(
        np.rint(vals / safe[row_of]), -127, 127
    ).astype(np.int8) if vals.size else np.zeros(0, dtype=np.int8)
    return quantized, scales


def dequantize_rows(
    quantized: np.ndarray, scales: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`quantize_rows_int8` (float32 values)."""
    q = np.asarray(quantized)
    ptr = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(ptr)
    row_of = np.repeat(np.arange(ptr.size - 1), counts)
    return (q.astype(np.float32) * np.asarray(scales, dtype=np.float32)[row_of])


def packed_layer_bytes(
    pattern, precision: str = "int8"
) -> Dict[str, int]:
    """Actual encoded byte cost of one CSR pattern in the packed format.

    Runs the real index codec (not a formula), so the §III-D theoretical
    accounting and the on-disk bytes can be reported side by side
    without silently diverging.
    """
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r} (choose from {PRECISIONS})")
    deltas = delta_encode_indices(pattern.indices, pattern.indptr)
    index_bytes = int(varint_encode(deltas).size)
    indptr_bytes = int(np.asarray(pattern.indptr).size * 4)
    value_bytes = int(pattern.nnz * np.dtype(_VALUE_DTYPES[precision]).itemsize)
    scale_bytes = (pattern.shape[0] * 4) if precision == "int8" else 0
    return {
        "index_bytes": index_bytes,
        "indptr_bytes": indptr_bytes,
        "value_bytes": value_bytes,
        "scale_bytes": scale_bytes,
        "total_bytes": index_bytes + indptr_bytes + value_bytes + scale_bytes,
    }


# ----------------------------------------------------------------------
# Model specs (geometry rebuild without the training stack)
# ----------------------------------------------------------------------
def build_spec_model(spec: Dict):
    """Instantiate model geometry from a package's model spec.

    ``spec`` records the zoo name (plus ``"mlp"`` for
    :class:`~repro.snn.models.SpikingMLP`, which is not an experiment
    model) and the resolved constructor kwargs.  Runs under
    :func:`~repro.nn.init.skip_init` — every parameter is overwritten
    from the package, so the init draws would be wasted work.
    """
    from ..snn.encoding import build_encoder
    from ..snn.models import MODEL_REGISTRY, SpikingMLP, build_model

    name = spec["model"]
    kwargs = dict(spec.get("kwargs", {}))
    with skip_init():
        if name in MODEL_REGISTRY:
            model = build_model(name, **kwargs)
        elif name == "mlp":
            model = SpikingMLP(**kwargs)
        else:
            raise ValueError(
                f"unknown model {name!r} in package spec "
                f"(available: {sorted(MODEL_REGISTRY) + ['mlp']})"
            )
    encoder = spec.get("encoder", "direct")
    if encoder and encoder != "direct":
        encoder_kwargs = {}
        if encoder == "poisson":
            # Mirrors build_experiment_model's dedicated stream
            # (seed + 4) so packaged and checkpointed serving draw
            # identical spike trains.
            encoder_kwargs["rng"] = np.random.default_rng(
                int(spec.get("seed", 0)) + 4
            )
        timesteps = kwargs.get("timesteps", 4)
        model.encoder = build_encoder(encoder, timesteps, **encoder_kwargs)
    return model


def spec_from_config(config) -> Dict:
    """Model spec for an :class:`~repro.experiments.config.ExperimentConfig`.

    Export-side helper (the experiments import happens at the caller);
    resolves the same kwargs ``build_experiment_model`` would pass so
    the package loader rebuilds identical geometry without the config.
    """
    kwargs = dict(
        num_classes=config.num_classes or 10,
        in_channels=3,
        image_size=config.image_size or 32,
        timesteps=config.timesteps,
    )
    if config.model != "convnet":
        kwargs["width_mult"] = config.width_mult
    return {
        "model": config.model,
        "kwargs": kwargs,
        "encoder": config.encoder,
        "seed": config.seed,
    }


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class _BlobWriter:
    """Accumulates aligned tensor blobs and their manifest entries."""

    def __init__(self) -> None:
        self.blobs = []
        self.offset = 0

    def add(self, array: np.ndarray) -> Dict:
        array = np.ascontiguousarray(array)
        start = _aligned(self.offset)
        if start > self.offset:
            self.blobs.append(b"\x00" * (start - self.offset))
        data = array.tobytes()
        self.blobs.append(data)
        self.offset = start + len(data)
        return {
            "offset": start,
            "nbytes": len(data),
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }


def _dense_entries(model, skip_names) -> "OrderedDict[str, Tuple[str, np.ndarray]]":
    """Name -> (kind, array) for everything outside the sparse states."""
    entries: "OrderedDict[str, Tuple[str, np.ndarray]]" = OrderedDict()
    for name, parameter in model.named_parameters():
        if name not in skip_names:
            entries[name] = ("param", parameter.data)
    for name, buffer in model.named_buffers():
        entries[name] = ("buffer", np.asarray(buffer))
    return entries


def write_package(
    path: Union[str, Path],
    model,
    manager,
    model_spec: Dict,
    precision: str = "int8",
) -> Dict:
    """Write a ``.reprom`` artifact for a (masked) model.

    ``manager`` is the model's :class:`~repro.sparse.engine.SparsityManager`
    (frozen or not); its execution mode, per-layer routes and
    calibration table are captured so serving reproduces the training
    run's dispatch.  Returns a summary dict (file size, per-layer
    accounting).
    """
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r} (choose from {PRECISIONS})")
    path = Path(path)
    writer = _BlobWriter()
    layers = []
    for name, state in manager.states.items():
        pattern = state.csr_pattern()
        values = np.asarray(state.csr_values(), dtype=np.float32)
        deltas = delta_encode_indices(pattern.indices, pattern.indptr)
        entry = {
            "name": name,
            "shape": list(pattern.shape),
            "orig_shape": list(pattern.orig_shape),
            "nnz": pattern.nnz,
            "route": "csr" if manager.use_csr(state) else "dense",
            "tensors": {
                "indices": writer.add(varint_encode(deltas)),
                "indptr": writer.add(pattern.indptr.astype(np.int32)),
            },
        }
        if precision == "int8":
            quantized, scales = quantize_rows_int8(values, pattern.indptr)
            entry["tensors"]["values"] = writer.add(quantized)
            entry["tensors"]["scales"] = writer.add(scales)
        elif precision == "f16":
            entry["tensors"]["values"] = writer.add(values.astype(np.float16))
        else:
            entry["tensors"]["values"] = writer.add(values)
        layers.append(entry)

    dense = []
    for name, (kind, array) in _dense_entries(model, set(manager.states)).items():
        stored = array
        if np.issubdtype(array.dtype, np.floating):
            stored = array.astype(np.float16)
        dense.append({
            "name": name,
            "kind": kind,
            "source_dtype": np.asarray(array).dtype.str,
            **{"tensor": writer.add(stored)},
        })

    meta = {
        "format": FORMAT_VERSION,
        "precision": precision,
        "execution": manager.execution,
        "model_spec": model_spec,
        "calibration": (
            manager.calibration.to_meta() if manager.calibration is not None else None
        ),
        "layers": layers,
        "dense": dense,
    }
    meta["storage"] = {
        "value_bits": {"f32": 32, "f16": 16, "int8": 8}[precision],
        "csr_bits_theoretical": sum(
            entry["nnz"] * 64 + (entry["shape"][0] + 1) * 32 for entry in layers
        ),
        "layer_bytes": sum(
            sum(t["nbytes"] for t in entry["tensors"].values()) for entry in layers
        ),
        "dense_bytes": sum(entry["tensor"]["nbytes"] for entry in dense),
    }

    def write(tmp: Path) -> None:
        meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
        header = MAGIC + np.uint64(len(meta_json)).tobytes()
        prefix = len(header) + len(meta_json)
        pad = _aligned(prefix) - prefix
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(meta_json)
            handle.write(b"\x00" * pad)
            for blob in writer.blobs:
                handle.write(blob)

    atomic_replace(write, path)
    return {
        "path": str(path),
        "precision": precision,
        "file_bytes": path.stat().st_size,
        "layers": len(layers),
        "dense_entries": len(dense),
        "storage": meta["storage"],
    }


# ----------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------
class PackedModel:
    """An mmap'd ``.reprom`` artifact.

    Thread-safe to share: the map is read-only and every accessor
    returns views.  One ``PackedModel`` feeds any number of serving
    sessions (each session builds its own model geometry; the heavy
    value buffers all alias this single map).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        if self._mm.size < 16 or bytes(self._mm[:8]) != MAGIC:
            raise ValueError(f"{self.path} is not a .reprom package")
        meta_len = int(self._mm[8:16].view("<u8")[0])
        if 16 + meta_len > self._mm.size:
            raise ValueError(f"{self.path}: truncated metadata")
        self.meta = json.loads(bytes(self._mm[16:16 + meta_len]).decode("utf-8"))
        if self.meta.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"{self.path}: unsupported format version {self.meta.get('format')}"
            )
        self._data_start = _aligned(16 + meta_len)

    @property
    def precision(self) -> str:
        return self.meta["precision"]

    @property
    def file_bytes(self) -> int:
        return int(self._mm.size)

    def tensor(self, entry: Dict) -> np.ndarray:
        """Zero-copy view of one manifest entry (read-only)."""
        start = self._data_start + entry["offset"]
        stop = start + entry["nbytes"]
        if stop > self._mm.size:
            raise ValueError(f"{self.path}: tensor extends past end of file")
        view = self._mm[start:stop].view(np.dtype(entry["dtype"]))
        return view.reshape(entry["shape"])


class PackedState:
    """Duck-typed stand-in for :class:`~repro.sparse.engine.MaskedParameter`.

    Provides exactly what the serving path consumes — ``csr_pattern()``
    / ``csr_values()`` for the kernels, density/size for the reports —
    over a read-only pattern whose values may alias the package map.
    No dense mask is ever materialized.
    """

    __slots__ = ("name", "route", "pattern", "manager", "frozen")

    def __init__(self, name: str, route: str, pattern) -> None:
        self.name = name
        self.route = route
        self.pattern = pattern
        self.manager = None
        self.frozen = True

    @property
    def size(self) -> int:
        return int(np.prod(self.pattern.orig_shape))

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.pattern.orig_shape

    def density(self) -> float:
        return self.pattern.nnz / self.size if self.size else 0.0

    def sparsity(self) -> float:
        return 1.0 - self.density()

    def csr_pattern(self):
        return self.pattern

    def csr_values(self) -> np.ndarray:
        return self.pattern.values


class PackedManager:
    """Read-only manager facade over a package's layer states.

    Implements the slice of the :class:`~repro.sparse.engine.SparsityManager`
    interface that :class:`~repro.serve.registry.InferenceSession`, the
    dispatch/storage reports and the masked kernels consume.  There is
    nothing to freeze or thaw — the artifact is immutable by
    construction.
    """

    def __init__(self, package: PackedModel, precision: str) -> None:
        self.package = package
        self.precision = precision
        self.execution = package.meta.get("execution", "auto")
        self.states: "OrderedDict[str, PackedState]" = OrderedDict()
        self.calibration = None
        calibration_meta = package.meta.get("calibration")
        if calibration_meta:
            from .dispatch import CalibrationTable

            self.calibration = CalibrationTable.from_meta(calibration_meta)

    def add_state(self, state: PackedState) -> None:
        state.manager = self
        self.states[state.name] = state

    def use_csr(self, state: PackedState) -> bool:
        return state.route == "csr"

    @property
    def frozen(self) -> bool:
        return True

    def freeze(self) -> "PackedManager":
        return self

    def thaw(self) -> "PackedManager":
        raise RuntimeError(
            "a packed serving session is immutable; re-train from a "
            "checkpoint instead of thawing a .reprom artifact"
        )

    def explain_dispatch(self, name: str) -> Dict:
        from .dispatch import matrix_shape

        state = self.states[name]
        return {
            "layer": name,
            "shape": matrix_shape(state.shape),
            "density": round(state.density(), 4),
            "cutoff": None,
            "cutoff_source": "package",
            "execution": f"packed-{self.precision}",
            "route": state.route,
        }

    def sparsity(self) -> float:
        total = sum(state.size for state in self.states.values())
        nnz = sum(state.pattern.nnz for state in self.states.values())
        return 1.0 - nnz / total if total else 0.0


def _decode_layer_indices(package: PackedModel, entry: Dict) -> Tuple[np.ndarray, np.ndarray]:
    indptr = np.asarray(package.tensor(entry["tensors"]["indptr"]), dtype=np.int32)
    deltas = varint_decode(
        package.tensor(entry["tensors"]["indices"]), entry["nnz"]
    )
    indices = delta_decode_indices(deltas, indptr, entry["shape"][1])
    return indices, indptr


def _layer_values_f32(package: PackedModel, entry: Dict) -> np.ndarray:
    """Float32 values of one layer (f32 artifacts: a view into the map)."""
    stored = package.tensor(entry["tensors"]["values"])
    if package.precision == "f32":
        return stored
    if package.precision == "f16":
        return stored.astype(np.float32)
    scales = package.tensor(entry["tensors"]["scales"])
    indptr = package.tensor(entry["tensors"]["indptr"])
    return dequantize_rows(stored, scales, indptr)


def _assign_dense_entries(package: PackedModel, model) -> None:
    """Wire the package's dense tensors (f16 biases etc.) into the model.

    Float entries stay float16 **views into the map** — stored and
    served at f16 end-to-end; numpy upcasts them on use.  Integer
    buffers keep their dtype.
    """
    parameters = dict(model.named_parameters())
    buffer_owners = {}
    for module_name, module in model.named_modules():
        for buffer_name in module._buffers:
            full = f"{module_name}.{buffer_name}" if module_name else buffer_name
            buffer_owners[full] = (module, buffer_name)
    for entry in package.meta["dense"]:
        view = package.tensor(entry["tensor"])
        name = entry["name"]
        if entry["kind"] == "param":
            if name not in parameters:
                raise KeyError(f"package dense entry {name!r} not in model")
            parameters[name].data = view
            parameters[name].requires_grad = False
        else:
            if name not in buffer_owners:
                raise KeyError(f"package buffer {name!r} not in model")
            module, buffer_name = buffer_owners[name]
            module.update_buffer(buffer_name, view)


def _weight_owners(model) -> Dict[str, object]:
    """weight-parameter name -> the module owning it."""
    return {
        f"{name}.weight" if name else "weight": module
        for name, module in model.named_modules()
        if "weight" in module._parameters
    }


def _dense_from_pattern(pattern, values: np.ndarray) -> np.ndarray:
    """Materialize a dense float32 weight from CSR (dense-routed layers)."""
    rows, cols = pattern.shape
    dense = np.zeros((rows, cols), dtype=np.float32)
    row_of = np.repeat(np.arange(rows), np.diff(pattern.indptr))
    dense[row_of, pattern.indices] = values
    return dense.reshape(pattern.orig_shape)


def build_packed_runtime(
    package: PackedModel, precision: Optional[str] = None
):
    """``(model, manager)`` serving pair from an mmap'd package.

    Every sparse layer runs through a frozen
    :class:`~repro.sparse.storage.CSRPattern` bound as the layer's
    ``weight_state``; ``precision`` picks its value buffer:

    * ``"f32"`` (the default) — quantized values are pre-scaled into
      float32 buffers at load (f32 artifacts alias the map outright)
      and each layer takes the route recorded in the manifest.
    * ``"f16"`` / ``"int8"`` — memory-minimal: the value buffers stay
      mapped at the stored precision (int8 rows are rescaled by the
      stored per-row scales after each product) and every layer routes
      CSR, so no dense weight is materialized.  Requires a matching
      artifact precision.
    """
    runtime = precision or "f32"
    if runtime not in PRECISIONS:
        raise ValueError(f"unknown precision {runtime!r} (choose from {PRECISIONS})")
    if runtime != "f32" and runtime != package.precision:
        raise ValueError(
            f"runtime precision {runtime!r} needs a {runtime} artifact; "
            f"{package.path} stores {package.precision!r} values "
            "(re-export, or serve at f32 which pre-scales at load)"
        )
    model = build_spec_model(package.meta["model_spec"])
    model.eval()
    _assign_dense_entries(package, model)
    manager = PackedManager(package, runtime)
    owners = _weight_owners(model)
    for entry in package.meta["layers"]:
        name = entry["name"]
        if name not in owners:
            raise KeyError(f"package layer {name!r} not in model")
        module = owners[name]
        indices, indptr = _decode_layer_indices(package, entry)
        if runtime == "f32":
            values, route = _layer_values_f32(package, entry), entry["route"]
        else:
            values, route = package.tensor(entry["tensors"]["values"]), "csr"
        pattern = CSRPattern.from_arrays(
            indices, indptr, entry["shape"], entry["orig_shape"], values=values
        )
        if runtime == "int8":
            pattern.scales = package.tensor(entry["tensors"]["scales"])
        pattern.freeze()
        state = PackedState(name, route, pattern)
        manager.add_state(state)
        if route == "csr":
            object.__setattr__(module, "weight_state", state)
        else:
            module.weight.data = _dense_from_pattern(pattern, pattern.values)
            module.weight.requires_grad = False
    return model, manager
