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
import math
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..nn.init import skip_init
from ..utils import atomic_replace
from .dispatch import CalibrationTable
from .engine import EXECUTION_MODES, SparsityManager
from .storage import CSRPattern, csr_bits

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
    ``[-127, 127]``.  The reconstruction error of a value ``v`` is at
    most ``scale / 2`` plus the float32 rounding of ``v / scale`` and of
    the restored ``q * scale``: about one ulp of the restored value
    (rounding never clips: the extreme value maps to exactly ±127).
    Rows with no non-zeros (or all zeros) get scale 0.
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
# Model specs (the one model constructor; no training-stack imports)
# ----------------------------------------------------------------------
def build_spec_model(spec: Dict):
    """Instantiate a model from a model spec.

    ``spec`` records the zoo name (plus ``"mlp"`` for
    :class:`~repro.snn.models.SpikingMLP`, which is not an experiment
    model), the resolved constructor kwargs, the encoder and the seed.
    This is the one model constructor behind training, checkpoint
    serving and package loading.  Weights draw from ``seed + 2`` and the
    Poisson encoder from its own ``seed + 4`` stream, so rate coding is
    reproducible and resumable (the checkpoint layer captures and
    restores ``encoder.rng``).  The package loader calls it under
    :func:`~repro.nn.init.skip_init`, since every parameter is
    overwritten from the package.
    """
    from ..snn.encoding import build_encoder
    from ..snn.models import MODEL_REGISTRY, SpikingMLP, build_model

    name = spec["model"]
    seed = int(spec.get("seed", 0))
    kwargs = dict(spec.get("kwargs", {}), rng=np.random.default_rng(seed + 2))
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
            encoder_kwargs["rng"] = np.random.default_rng(seed + 4)
        timesteps = kwargs.get("timesteps", 4)
        model.encoder = build_encoder(encoder, timesteps, **encoder_kwargs)
    return model


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
            "route": manager.route(state),
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
            csr_bits(entry["nnz"], entry["shape"][0]) for entry in layers
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
    sessions: each session builds its own model, neurons and manager,
    but all of them alias this single map and the frozen layers
    decoded from it once per runtime precision (:func:`_frozen_layers`).
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
        self._frozen: Dict[str, Tuple[Dict, Dict]] = {}
        self._frozen_lock = threading.Lock()

    @property
    def precision(self) -> str:
        precision = self.meta.get("precision")
        if precision not in PRECISIONS:
            raise self.field_error("precision", f"is {precision!r}, not one of {PRECISIONS}")
        return precision

    def field_error(self, field: str, why: str) -> ValueError:
        """The ``ValueError`` for a manifest ``field`` this file gets wrong."""
        return ValueError(f"{self.path}: manifest field {field!r} {why}")

    @property
    def file_bytes(self) -> int:
        return int(self._mm.size)

    def tensor(self, entry: Dict) -> np.ndarray:
        """Zero-copy view of one manifest entry (read-only).

        An entry that cannot describe a tensor of this file raises a
        ``ValueError`` naming the file and the field: a missing key, an
        ``offset`` or ``nbytes`` that is not an integer >= 0, a ``dtype``
        that is not a NumPy number type, a ``shape`` whose size times the
        item size is not ``nbytes``, or bytes past the end of the file.
        """
        def bad(field, why):
            return ValueError(f"{self.path}: tensor entry field {field!r} {why}")

        for field in ("offset", "nbytes", "dtype", "shape"):
            if field not in entry:
                raise bad(field, "is missing")
        offset, nbytes, shape = entry["offset"], entry["nbytes"], entry["shape"]
        for field, value in (("offset", offset), ("nbytes", nbytes)):
            if not _is_count(value):
                raise bad(field, f"is {value!r}, not an integer >= 0")
        try:
            dtype = np.dtype(entry["dtype"])
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in "biuf":
            raise bad("dtype", f"is {entry['dtype']!r}, not a NumPy number type")
        if not isinstance(shape, list) or not all(_is_count(size) for size in shape):
            raise bad("shape", f"is {shape!r}, not a list of integers >= 0")
        if math.prod(shape) * dtype.itemsize != nbytes:
            raise bad("shape", f"{shape} of {dtype.str} is not {nbytes} bytes")
        start = self._data_start + offset
        stop = start + nbytes
        if stop > self._mm.size:
            raise ValueError(f"{self.path}: tensor extends past end of file")
        return self._mm[start:stop].view(dtype).reshape(shape)


def _is_count(value) -> bool:
    """Whether a manifest ``value`` is a JSON integer >= 0."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_manifest(package: PackedModel) -> None:
    """Check the manifest fields the runtime builder reads.

    A missing or malformed field raises the ``ValueError`` of
    :meth:`PackedModel.field_error`, naming the file and the field
    (``layers[1].shape``), never a raw ``KeyError``/``TypeError``.
    Tensor entries are checked where they are read
    (:meth:`PackedModel.tensor`).
    """
    meta, bad = package.meta, package.field_error
    tensors = ("indptr", "indices", "values") + (("scales",) if package.precision == "int8" else ())
    if meta.get("execution") not in EXECUTION_MODES:
        raise bad("execution", f"is {meta.get('execution')!r}, not one of {EXECUTION_MODES}")
    spec = meta.get("model_spec")
    if not isinstance(spec, dict) or not isinstance(spec.get("model"), str):
        raise bad("model_spec", f"is {spec!r}, not an object naming a model")
    for field in ("layers", "dense"):
        if not isinstance(meta.get(field), list) or not all(
                isinstance(entry, dict) for entry in meta[field]):
            raise bad(field, "is not a list of objects")
    for index, entry in enumerate(meta["layers"]):
        def field(key):
            return f"layers[{index}].{key}"

        for key in ("name", "nnz", "shape", "orig_shape", "route", "tensors"):
            if key not in entry:
                raise bad(field(key), "is missing")
        shape, orig_shape = entry["shape"], entry["orig_shape"]
        if not isinstance(entry["name"], str):
            raise bad(field("name"), f"is {entry['name']!r}, not a string")
        if not _is_count(entry["nnz"]):
            raise bad(field("nnz"), f"is {entry['nnz']!r}, not an integer >= 0")
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_count, shape))):
            raise bad(field("shape"), f"is {shape!r}, not a list of two integers >= 0")
        if not (isinstance(orig_shape, list) and all(map(_is_count, orig_shape))
                and math.prod(orig_shape) == math.prod(shape)):
            raise bad(field("orig_shape"), f"is {orig_shape!r}, not a list of integers >= 0 "
                      f"holding the {math.prod(shape)} weights of shape")
        if entry["route"] not in ("csr", "dense"):
            raise bad(field("route"), f"is {entry['route']!r}, not 'csr' or 'dense'")
        if not (isinstance(entry["tensors"], dict)
                and all(key in entry["tensors"] for key in tensors)):
            raise bad(field("tensors"),
                      f"is {entry['tensors']!r}, not an object of {list(tensors)}")
    for index, entry in enumerate(meta["dense"]):
        for key in ("name", "kind", "tensor"):
            if key not in entry:
                raise bad(f"dense[{index}].{key}", "is missing")


def _frozen_layers(package: PackedModel, runtime: str) -> Tuple[Dict, Dict]:
    """``(patterns, dense)`` of a package's layers at ``runtime``, decoded
    once per ``(package, runtime)`` and shared by all its sessions.

    The lock makes the concurrent first calls of an ``InferenceServer``'s
    workers decode once.  Each frozen pattern aliases the map's values
    (and ``scales`` at ``int8``) unless ``f32`` pre-scales them;
    ``dense`` holds a read-only weight for each layer the manifest
    routes dense at ``f32``.
    """
    with package._frozen_lock:
        if runtime not in package._frozen:
            patterns, dense = {}, {}
            for entry in package.meta["layers"]:
                tensors = entry["tensors"]
                indptr = np.asarray(package.tensor(tensors["indptr"]), dtype=np.int32)
                deltas = varint_decode(package.tensor(tensors["indices"]), entry["nnz"])
                indices = delta_decode_indices(deltas, indptr, entry["shape"][1])
                values = package.tensor(tensors["values"])
                if runtime == "f32" and package.precision == "f16":
                    values = values.astype(np.float32)
                elif runtime == "f32" and package.precision == "int8":
                    values = dequantize_rows(values, package.tensor(tensors["scales"]), indptr)
                pattern = CSRPattern.from_arrays(
                    indices, indptr, entry["shape"], entry["orig_shape"], values=values
                )
                if runtime == "int8":
                    pattern.scales = package.tensor(tensors["scales"])
                patterns[entry["name"]] = pattern.freeze()
                if runtime == "f32" and entry["route"] == "dense":
                    dense[entry["name"]] = _dense_from_pattern(pattern)
                    dense[entry["name"]].setflags(write=False)
            package._frozen[runtime] = (patterns, dense)
        return package._frozen[runtime]


def _assign_dense_entries(package: PackedModel, model) -> None:
    """Wire the package's dense tensors (f16 biases etc.) into the model.

    Float entries stay float16 **views into the map** — stored and
    served at f16 end-to-end; numpy upcasts them on use.  Integer
    buffers keep their dtype.  An entry naming no parameter or buffer
    of the model, or whose tensor has another shape than its target,
    raises the ``ValueError`` of :meth:`PackedModel.field_error`.
    """
    parameters = dict(model.named_parameters())
    buffer_owners = {}
    for module_name, module in model.named_modules():
        for buffer_name in module._buffers:
            full = f"{module_name}.{buffer_name}" if module_name else buffer_name
            buffer_owners[full] = (module, buffer_name)
    for index, entry in enumerate(package.meta["dense"]):
        view = package.tensor(entry["tensor"])
        name, is_param = entry["name"], entry["kind"] == "param"
        if is_param and name in parameters:
            target = parameters[name].data
        elif not is_param and name in buffer_owners:
            module, buffer_name = buffer_owners[name]
            target = module._buffers[buffer_name]
        else:
            kind = "parameter" if is_param else "buffer"
            raise package.field_error(f"dense[{index}].name",
                                      f"is {name!r}, not a {kind} of the model")
        if view.shape != target.shape:
            raise package.field_error(
                f"dense[{index}].tensor",
                f"has shape {list(view.shape)}, not the {list(target.shape)} of {name!r}")
        if is_param:
            parameters[name].data = view
            parameters[name].requires_grad = False
        else:
            module.update_buffer(buffer_name, view)


def _dense_from_pattern(pattern) -> np.ndarray:
    """Materialize a dense float32 weight from CSR (dense-routed layers)."""
    rows, cols = pattern.shape
    dense = np.zeros((rows, cols), dtype=np.float32)
    row_of = np.repeat(np.arange(rows), np.diff(pattern.indptr))
    dense[row_of, pattern.indices] = pattern.values
    return dense.reshape(pattern.orig_shape)


def build_packed_runtime(
    package: PackedModel, precision: Optional[str] = None
):
    """``(model, manager)`` serving pair from an mmap'd package.

    ``manager`` is a frozen :class:`~repro.sparse.engine.SparsityManager`
    whose layer states are built straight from the package's frozen
    :class:`~repro.sparse.storage.CSRPattern` objects (no dense mask);
    ``precision`` picks their value buffers:

    * ``"f32"`` (the default) — quantized values are pre-scaled into
      float32 buffers at load (f32 artifacts alias the map outright).
      The manager takes the manifest's execution mode and calibration
      table, and every recomputed route must equal the manifest's
      ``route``; dense-routed layers get a materialized dense weight.
    * ``"f16"`` / ``"int8"`` — memory-minimal: the value buffers stay
      mapped at the stored precision (int8 rows are rescaled by the
      stored per-row scales after each product) and the manager runs
      ``csr`` execution, so no dense weight is materialized.  Requires
      a matching artifact precision.
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
    _check_manifest(package)
    try:
        with skip_init():
            model = build_spec_model(package.meta["model_spec"])
    except (KeyError, TypeError, ValueError) as error:
        raise package.field_error("model_spec", f"does not build a model: {error!r}") from error
    model.eval()
    parameters = dict(model.named_parameters())
    for index, entry in enumerate(package.meta["layers"]):
        if entry["name"] not in parameters:
            raise package.field_error(f"layers[{index}].name",
                                      f"is {entry['name']!r}, not a parameter of the model")
    _assign_dense_entries(package, model)
    patterns, dense = _frozen_layers(package, runtime)
    manager = SparsityManager.from_patterns(
        model,
        patterns,
        execution=package.meta["execution"] if runtime == "f32" else "csr",
        calibration=CalibrationTable.from_meta(package.meta.get("calibration")),
        package=package,
    )
    manager.bind_layers()
    if runtime == "f32":
        for entry in package.meta["layers"]:
            state = manager.states[entry["name"]]
            route = manager.route(state)
            if route != entry["route"]:
                raise ValueError(
                    f"{package.path}: layer {state.name!r} routes {route} "
                    f"but the manifest records {entry['route']!r}"
                )
            if route == "dense":
                state.parameter.data = dense[state.name]
    return model, manager
