"""Packed ``.reprom`` artifact: codecs, quantization bounds, zero-copy load.

Property-based where it matters:

* delta+varint index coding is lossless for every well-formed CSR
  pattern (sorted, unique, in-range — preserved exactly);
* int8 per-row absmax quantization reconstructs within ``scale/2`` per
  row and never clips; f16 storage is exact for f16-representable
  values;
* export → load → infer is **bit-stable across processes** (two fresh
  interpreters agree byte-for-byte on the same package);
* package-backed serving never imports the training stack; and
* the storage report's packed bytes are the real file's bytes, not a
  formula.
"""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.serve import InferenceSession, ModelRegistry
from repro.snn.models import SpikingMLP
from repro.sparse import CalibrationTable, MaskedParameter, SparsityManager, packaging
from repro.sparse.packaging import (
    _VALUE_DTYPES,
    MAGIC,
    PackedModel,
    build_packed_runtime,
    build_spec_model,
    delta_decode_indices,
    delta_encode_indices,
    dequantize_rows,
    packed_layer_bytes,
    quantize_rows_int8,
    varint_decode,
    varint_encode,
    write_package,
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

MLP_SPEC = {
    "model": "mlp",
    "kwargs": {"in_features": 16, "num_classes": 3, "hidden": [24],
               "timesteps": 3},
    "encoder": "direct",
    "seed": 0,
}


def make_packaged_mlp(tmp_path, precision="int8", density=0.2, seed=0):
    model = SpikingMLP(16, 3, hidden=(24,), timesteps=3,
                       rng=np.random.default_rng(seed))
    model.eval()
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: density for name in manager.states})
    manager.set_execution("csr")
    path = tmp_path / f"model_{precision}.reprom"
    summary = write_package(path, model, manager, MLP_SPEC,
                            precision=precision)
    return model, manager, path, summary


def random_csr(rng, rows, cols, density):
    mask = rng.random((rows, cols)) < density
    indptr = np.zeros(rows + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(mask.sum(axis=1))
    indices = (
        np.concatenate([np.flatnonzero(mask[r]) for r in range(rows)])
        .astype(np.int32)
        if mask.any() else np.zeros(0, dtype=np.int32)
    )
    return indices, indptr


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------
class TestIndexCodec:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=2**40), max_size=200
        )
    )
    def test_varint_round_trip(self, values):
        array = np.asarray(values, dtype=np.uint64)
        decoded = varint_decode(varint_encode(array), len(values))
        assert np.array_equal(decoded, array)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=500),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_delta_varint_round_trip_preserves_csr(
        self, rows, cols, density, seed
    ):
        indices, indptr = random_csr(
            np.random.default_rng(seed), rows, cols, density
        )
        stream = varint_encode(delta_encode_indices(indices, indptr))
        decoded = delta_decode_indices(
            varint_decode(stream, indices.size), indptr, cols
        )
        assert decoded.dtype == np.int32
        assert np.array_equal(decoded, indices)
        # well-formedness survives: sorted+unique per row, in range
        for row in range(rows):
            span = decoded[indptr[row]:indptr[row + 1]]
            assert np.all(np.diff(span) > 0)
            assert span.size == 0 or (span[0] >= 0 and span[-1] < cols)

    def test_unsorted_indices_rejected(self):
        indptr = np.array([0, 2], dtype=np.int32)
        with pytest.raises(ValueError):
            delta_encode_indices(np.array([3, 1], dtype=np.int32), indptr)
        with pytest.raises(ValueError):  # duplicate
            delta_encode_indices(np.array([3, 3], dtype=np.int32), indptr)

    def test_corrupt_varint_stream_rejected(self):
        good = varint_encode(np.array([5, 300], dtype=np.uint64))
        with pytest.raises(ValueError):
            varint_decode(good, 3)  # wrong element count
        with pytest.raises(ValueError):
            varint_decode(good[:-1], 2)  # truncated terminator

    def test_out_of_range_decode_rejected(self):
        indptr = np.array([0, 1], dtype=np.int32)
        deltas = delta_encode_indices(np.array([7], dtype=np.int32), indptr)
        with pytest.raises(ValueError):
            delta_decode_indices(deltas, indptr, cols=7)


# ----------------------------------------------------------------------
# Quantization properties
# ----------------------------------------------------------------------
class TestQuantization:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=30),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    # Restores 542.9017 for 538.0543: 1.48e-5 past ``scale / 2``, a
    # quarter of the float32 spacing (6.1e-5) at that magnitude.
    @example(rows=13, scale=577.0, seed=34681)
    def test_int8_error_within_half_scale_per_row(self, rows, scale, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, size=rows)
        indptr = np.zeros(rows + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        values = (rng.standard_normal(int(indptr[-1])) * scale).astype(
            np.float32
        )
        quantized, scales = quantize_rows_int8(values, indptr)
        assert quantized.dtype == np.int8
        assert np.abs(quantized).max(initial=0) <= 127  # never clips
        restored = dequantize_rows(quantized, scales, indptr)
        row_of = np.repeat(np.arange(rows), counts)
        # ``q = rint(v / scale)`` and ``q * scale`` each round to float32,
        # by at most the unit roundoff ``u`` of their result: together
        # ``u * (|v| + |restored|)``, about one ulp of the restored value.
        # The error is taken in float64, where the subtraction is exact.
        u = np.finfo(np.float32).eps / 2
        error = np.abs(restored.astype(np.float64) - values)
        bound = scales[row_of] / 2.0 + u * (np.abs(values) + np.abs(restored))
        assert np.all(error <= bound)

    def test_empty_and_zero_rows_get_zero_scale(self):
        indptr = np.array([0, 0, 2, 4], dtype=np.int64)
        values = np.array([0.0, 0.0, 1.0, -2.0], dtype=np.float32)
        quantized, scales = quantize_rows_int8(values, indptr)
        assert scales[0] == 0.0 and scales[1] == 0.0
        restored = dequantize_rows(quantized, scales, indptr)
        assert np.array_equal(restored[:2], [0.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_f16_exact_for_representable_values(self, seed, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("f16")
        model = SpikingMLP(8, 2, hidden=(6,), timesteps=2,
                           rng=np.random.default_rng(seed))
        model.eval()
        # force every weight onto the f16 grid first
        for _, parameter in model.named_parameters():
            parameter.data = (
                parameter.data.astype(np.float16).astype(np.float32)
            )
        manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
        manager.init_random({name: 0.5 for name in manager.states})
        manager.set_execution("csr")
        path = tmp_path / f"m{seed}.reprom"
        write_package(path, model, manager,
                      {"model": "mlp",
                       "kwargs": {"in_features": 8, "num_classes": 2,
                                  "hidden": [6], "timesteps": 2},
                       "encoder": "direct", "seed": 0},
                      precision="f16")
        _, packed_manager = build_packed_runtime(PackedModel(path))
        for name, state in manager.states.items():
            stored = packed_manager.states[name].csr_values()
            assert np.array_equal(
                np.asarray(stored, dtype=np.float32), state.csr_values()
            ), name


# ----------------------------------------------------------------------
# Artifact structure and zero-copy loading
# ----------------------------------------------------------------------
class TestPackedArtifact:
    def test_header_magic_and_rejects_non_package(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path)
        with open(path, "rb") as fh:
            assert fh.read(8) == MAGIC
        bogus = tmp_path / "bogus.reprom"
        bogus.write_bytes(b"not a package at all")
        with pytest.raises(ValueError, match="not a .reprom"):
            PackedModel(bogus)

    @pytest.mark.parametrize("precision", ["f32", "f16", "int8"])
    def test_f32_values_alias_the_map_zero_copy(self, tmp_path, precision):
        """Values served at the stored precision stay views into the map."""
        _, manager, path, _ = make_packaged_mlp(tmp_path, precision=precision)
        package = PackedModel(path)
        _, packed_manager = build_packed_runtime(package, precision=precision)
        for name, state in packed_manager.states.items():
            values = state.csr_values()
            assert values.dtype == np.dtype(_VALUE_DTYPES[precision])
            assert not values.flags.writeable
            assert np.shares_memory(values, package._mm), name
            scales = state.csr_pattern().scales
            assert (scales is not None) == (precision == "int8")
            if scales is not None:
                assert np.shares_memory(scales, package._mm), name
            if precision == "f32":
                assert np.array_equal(values, manager.states[name].csr_values())

    def test_f16_biases_served_end_to_end(self, tmp_path):
        model, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        packed_model, _ = build_packed_runtime(PackedModel(path))
        originals = dict(model.named_parameters())
        served = dict(packed_model.named_parameters())
        bias_names = [name for name in served if name.endswith("bias")]
        assert bias_names
        for name in bias_names:
            assert served[name].data.dtype == np.float16, name
            assert np.array_equal(
                served[name].data,
                originals[name].data.astype(np.float16),
            ), name

    def test_runtime_precision_must_match_stored(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="f16")
        with pytest.raises(ValueError, match="needs a int8 artifact"):
            build_packed_runtime(PackedModel(path), precision="int8")

    def test_thaw_refused(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path)
        _, manager = build_packed_runtime(PackedModel(path))
        with pytest.raises(RuntimeError, match="immutable"):
            manager.thaw()

    @pytest.mark.parametrize("runtime", ["f32", "int8"])
    def test_states_are_maskless_masked_parameters(self, tmp_path, runtime):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        _, manager = build_packed_runtime(PackedModel(path), precision=runtime)
        assert isinstance(manager, SparsityManager) and manager.frozen
        for state in manager.states.values():
            assert isinstance(state, MaskedParameter)
            assert state.mask is None
            assert state.frozen and state.manager is manager

    def test_load_state_dict_refused_leaves_output_unchanged(self, tmp_path):
        model, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        session = InferenceSession(*build_packed_runtime(PackedModel(path)),
                                   max_batch=2)
        inputs = np.random.default_rng(12).standard_normal((2, 16)).astype(
            np.float32)
        before = session.predict(inputs)
        doubled = {name: value * 2.0 for name, value in model.state_dict().items()}
        with pytest.raises(RuntimeError, match="frozen for inference"):
            session.model.load_state_dict(doubled)
        assert np.array_equal(session.predict(inputs), before)

    def test_doctored_manifest_route_rejected(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        package = PackedModel(path)
        entry = package.meta["layers"][-1]
        entry["route"] = "dense" if entry["route"] == "csr" else "csr"
        with pytest.raises(ValueError, match=re.escape(repr(entry["name"]))):
            build_packed_runtime(package)

    def test_auto_calibrated_routes_match_checkpoint(self, tmp_path):
        """Routes recompute from the package's execution, calibration
        table and the static cutoff exactly as the trained manager's."""
        model = SpikingMLP(16, 3, hidden=(24, 20), timesteps=3,
                           rng=np.random.default_rng(5))
        model.eval()
        manager = SparsityManager(model, rng=np.random.default_rng(6))
        names = list(manager.states)
        manager.init_random(dict(zip(names, (0.2, 0.1, 0.1))))
        manager.set_execution("auto")
        # layer 0: calibrated csr; layer 1: calibrated dense; layer 2:
        # uncalibrated, so the static cutoff routes it csr.
        manager.calibration = CalibrationTable({(24, 16): 0.3, (20, 24): 0.05})
        spec = {**MLP_SPEC, "kwargs": {**MLP_SPEC["kwargs"], "hidden": [24, 20]}}
        path = tmp_path / "auto.reprom"
        write_package(path, model, manager, spec, precision="int8")
        checkpoint = InferenceSession(model, manager, max_batch=2)
        packed = InferenceSession(*build_packed_runtime(PackedModel(path)),
                                  max_batch=2)
        report = checkpoint.dispatch_report()
        assert [item["route"] for item in report] == ["csr", "dense", "csr"]
        assert [item["cutoff_source"] for item in report] == [
            "calibrated", "calibrated", "static"]
        assert packed.dispatch_report() == report

    def test_storage_report_bytes_are_real_file_bytes(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        package = PackedModel(path)
        model, manager = build_packed_runtime(package)
        report = InferenceSession(model, manager, max_batch=2).storage_report()
        assert report["packed"]["file_bytes"] == os.path.getsize(path)
        assert report["packed"]["precision"] == "int8"
        # per-layer packed bytes re-run the real codec and must fit in
        # the actual file (header/dense entries account for the rest)
        assert 0 < report["total_packed_bytes"] < os.path.getsize(path)
        for layer in report["layers"]:
            assert layer["packed_bytes"] < layer["dense_bits"] // 8

    def test_packed_layer_bytes_matches_manifest(self, tmp_path):
        _, manager, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        package = PackedModel(path)
        by_name = {entry["name"]: entry for entry in package.meta["layers"]}
        for name, state in manager.states.items():
            accounted = packed_layer_bytes(state.csr_pattern(), "int8")
            tensors = by_name[name]["tensors"]
            assert accounted["index_bytes"] == tensors["indices"]["nbytes"]
            assert accounted["value_bytes"] == tensors["values"]["nbytes"]
            assert accounted["scale_bytes"] == tensors["scales"]["nbytes"]


def rewrite_manifest(path, edit):
    """Rewrite ``path`` with ``edit(meta)`` applied to its manifest; the
    tensor bytes move along with the re-aligned data section."""
    raw = path.read_bytes()
    meta_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    meta = json.loads(raw[16:16 + meta_len])
    data = raw[packaging._aligned(16 + meta_len):]
    edit(meta)
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    prefix = 16 + len(meta_json)
    path.write_bytes(MAGIC + np.uint64(len(meta_json)).tobytes() + meta_json
                     + b"\x00" * (packaging._aligned(prefix) - prefix) + data)


class TestManifestEntryErrors:
    """A manifest tensor entry that cannot describe a tensor of the file
    fails at decode with a ``ValueError`` naming the file and the field,
    never a raw ``TypeError``/``KeyError`` or a view of the wrong bytes."""

    def doctored(self, tmp_path, field, value):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")

        def edit(meta):
            entry = meta["layers"][0]["tensors"]["values"]
            if value is None:
                del entry[field]
            else:
                entry[field] = value

        rewrite_manifest(path, edit)
        return PackedModel(path)

    def raises(self, package, field):
        message = f"{package.path}: tensor entry field {field!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_packed_runtime(package)

    def test_rewritten_package_decodes_the_same_tensors(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        original = tmp_path / "original.reprom"
        original.write_bytes(path.read_bytes())
        note = "rewritten " * 20  # moves the data section to the next alignment
        rewrite_manifest(path, lambda meta: meta.update(note=note))
        package, reference = PackedModel(path), PackedModel(original)
        assert package.meta["note"] == note
        assert package._data_start != reference._data_start
        for entry in reference.meta["layers"]:
            for tensor in entry["tensors"].values():
                assert package.tensor(tensor).tobytes() == reference.tensor(tensor).tobytes()

    @pytest.mark.parametrize("field", ["offset", "nbytes", "dtype", "shape"])
    def test_missing_key(self, tmp_path, field):
        self.raises(self.doctored(tmp_path, field, None), field)

    @pytest.mark.parametrize("dtype", ["<y4", "|O", "<U1", 7])
    def test_dtype(self, tmp_path, dtype):
        self.raises(self.doctored(tmp_path, "dtype", dtype), "dtype")

    @pytest.mark.parametrize("shape", [[3], [-1], "96", [2.0]])
    def test_shape_disagreeing_with_nbytes(self, tmp_path, shape):
        self.raises(self.doctored(tmp_path, "shape", shape), "shape")

    @pytest.mark.parametrize("offset", [-64, 1.5, True])
    def test_offset(self, tmp_path, offset):
        self.raises(self.doctored(tmp_path, "offset", offset), "offset")

    @pytest.mark.parametrize("nbytes", [-1, "96"])
    def test_nbytes(self, tmp_path, nbytes):
        self.raises(self.doctored(tmp_path, "nbytes", nbytes), "nbytes")


MISSING = object()


class TestManifestFieldErrors:
    """A top-level or layer manifest field the runtime builder reads
    fails with a ``ValueError`` naming the file and the field, never a
    raw ``KeyError``/``TypeError``."""

    @staticmethod
    def doctored(tmp_path, field, value):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")

        def edit(meta):
            target, key = meta, field
            if field.startswith("layers[0]."):
                target, key = meta["layers"][0], field.split(".", 1)[1]
            if value is MISSING:
                del target[key]
            else:
                target[key] = value

        rewrite_manifest(path, edit)
        return PackedModel(path)

    @pytest.mark.parametrize("field, value", [
        ("precision", MISSING), ("precision", "f64"),
        ("execution", MISSING), ("execution", "sparse"),
        ("model_spec", MISSING), ("model_spec", {"kwargs": {}}),
        ("model_spec", {"model": "mlp", "kwargs": {"bogus": 1}}),
        ("layers", MISSING), ("layers", {"body.0.weight": {}}),
        ("layers[0].name", MISSING), ("layers[0].name", 7),
        ("layers[0].name", "body.9.weight"),
        ("layers[0].nnz", MISSING), ("layers[0].nnz", -3), ("layers[0].nnz", "12"),
        ("layers[0].shape", MISSING), ("layers[0].shape", [24]),
        ("layers[0].shape", ["24", "16"]),
        ("layers[0].orig_shape", MISSING), ("layers[0].orig_shape", [5, 5]),
        ("layers[0].route", MISSING), ("layers[0].route", "sparse"),
        ("layers[0].tensors", MISSING), ("layers[0].tensors", {"indptr": {}}),
    ])
    def test_field(self, tmp_path, field, value):
        package = self.doctored(tmp_path, field, value)
        message = f"{package.path}: manifest field {field!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_packed_runtime(package)

    def dense_doctored(self, tmp_path, edit):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        rewrite_manifest(path, lambda meta: edit(meta["dense"][0]))
        return PackedModel(path)

    def test_dense_entry_naming_no_parameter(self, tmp_path):
        package = self.dense_doctored(
            tmp_path, lambda entry: entry.update(name="body.9.bias"))
        message = f"{package.path}: manifest field 'dense[0].name' is 'body.9.bias'"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_packed_runtime(package)

    def test_dense_tensor_of_another_shape(self, tmp_path):
        # The same bytes seen as a column: the view decodes, but would
        # bind a wrongly shaped bias without the check.
        def as_column(entry):
            entry["tensor"]["shape"] = entry["tensor"]["shape"] + [1]

        package = self.dense_doctored(tmp_path, as_column)
        name = package.meta["dense"][0]["name"]
        message = f"{package.path}: manifest field 'dense[0].tensor' has shape"
        with pytest.raises(ValueError, match=re.escape(message) + f".*{re.escape(repr(name))}"):
            build_packed_runtime(package)


# ----------------------------------------------------------------------
# Stored-precision runtime: one CSRPattern runtime for every precision
# ----------------------------------------------------------------------
CONVNET_SPEC = {
    "model": "convnet",
    "kwargs": {"num_classes": 4, "in_channels": 3, "image_size": 8,
               "timesteps": 2},
    "encoder": "direct",
    "seed": 0,
}


def make_packaged_convnet(tmp_path, precision):
    """A convnet whose manifest routes every layer dense."""
    model = build_spec_model(CONVNET_SPEC)
    rng = np.random.default_rng(3)
    for _, parameter in model.named_parameters():
        parameter.data = (rng.standard_normal(parameter.shape) * 0.3).astype(
            np.float32
        )
    model.eval()
    manager = SparsityManager(model, rng=np.random.default_rng(4))
    manager.init_random({name: 0.3 for name in manager.states})
    manager.set_execution("dense")
    path = tmp_path / f"convnet_{precision}.reprom"
    write_package(path, model, manager, CONVNET_SPEC, precision=precision)
    return path


class TestStoredPrecisionRuntime:
    @pytest.mark.parametrize("precision", ["f16", "int8"])
    @pytest.mark.parametrize("model_name", ["mlp", "convnet"])
    def test_matches_f32_runtime_and_routes_csr(
        self, tmp_path, model_name, precision
    ):
        if model_name == "mlp":
            _, _, path, _ = make_packaged_mlp(tmp_path, precision=precision)
            shape = (5, 16)
        else:
            path = make_packaged_convnet(tmp_path, precision)
            shape = (5, 3, 8, 8)
        package = PackedModel(path)
        inputs = np.random.default_rng(11).standard_normal(shape).astype(
            np.float32
        )
        sessions = {
            runtime: InferenceSession(
                *build_packed_runtime(package, precision=runtime), max_batch=4
            )
            for runtime in ("f32", precision)
        }
        reference = sessions["f32"].predict(inputs)
        produced = sessions[precision].predict(inputs)
        assert produced.dtype == np.float32
        assert np.abs(produced - reference).max() <= 1e-5
        routes = {
            item["layer"]: item["route"]
            for item in sessions[precision].dispatch_report()
        }
        assert set(routes.values()) == {"csr"}, routes
        if model_name == "convnet":
            # the manifest routed dense: only the f32 runtime follows it
            assert {item["route"] for item in
                    sessions["f32"].dispatch_report()} == {"dense"}


# ----------------------------------------------------------------------
# One decode per package: sessions alias the decoded frozen layers
# ----------------------------------------------------------------------
def make_auto_package(tmp_path, precision):
    """An ``auto`` MLP package whose middle layer the manifest routes dense."""
    model = SpikingMLP(16, 3, hidden=(24, 20), timesteps=3,
                       rng=np.random.default_rng(5))
    model.eval()
    manager = SparsityManager(model, rng=np.random.default_rng(6))
    names = list(manager.states)
    manager.init_random(dict(zip(names, (0.2, 0.1, 0.1))))
    manager.set_execution("auto")
    manager.calibration = CalibrationTable({(24, 16): 0.3, (20, 24): 0.05})
    spec = {**MLP_SPEC, "kwargs": {**MLP_SPEC["kwargs"], "hidden": [24, 20]}}
    path = tmp_path / f"auto_{precision}.reprom"
    write_package(path, model, manager, spec, precision=precision)
    return path, names


class TestSharedDecode:
    @pytest.mark.parametrize("precision", ["f32", "f16", "int8"])
    def test_sessions_alias_one_decode_and_match_a_fresh_package(
        self, tmp_path, precision
    ):
        path, names = make_auto_package(tmp_path, precision)
        registry = ModelRegistry().load_package("m", path, precision=precision)
        first, second = registry.session("m"), registry.session("m")
        fresh = InferenceSession(
            *build_packed_runtime(PackedModel(path), precision=precision),
            max_batch=first.max_batch,
        )
        assert first.model is not second.model
        assert first.manager is not second.manager
        for name in names:
            pattern = first.manager.states[name].csr_pattern()
            assert pattern is second.manager.states[name].csr_pattern()
            assert pattern is not fresh.manager.states[name].csr_pattern()
            assert pattern.frozen
        routes = [item["route"] for item in first.dispatch_report()]
        if precision == "f32":
            assert routes == ["csr", "dense", "csr"]
            dense = first.manager.states[names[1]].parameter.data
            assert dense is second.manager.states[names[1]].parameter.data
            assert not dense.flags.writeable
            assert first.manager.states[names[1]].parameter is not (
                second.manager.states[names[1]].parameter)
        else:
            assert set(routes) == {"csr"}
        inputs = np.random.default_rng(21).standard_normal((5, 16)).astype(
            np.float32)
        want = fresh.predict(inputs).tobytes()
        assert first.predict(inputs).tobytes() == want
        assert second.predict(inputs).tobytes() == want

    def test_concurrent_factory_calls_decode_once(self, tmp_path, monkeypatch):
        path, names = make_auto_package(tmp_path, "int8")
        decodes = []
        real_decode = packaging.varint_decode

        def counting_decode(*args, **kwargs):
            decodes.append(threading.get_ident())
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(packaging, "varint_decode", counting_decode)
        registry = ModelRegistry().load_package("m", path)
        barrier = threading.Barrier(8)
        sessions, errors = [], []

        def worker():
            try:
                barrier.wait()
                sessions.append(registry.session("m"))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(sessions) == 8
        # one varint decode per layer, all on one thread
        assert len(decodes) == len(names)
        assert len(set(decodes)) == 1
        for name in names:
            assert len({id(s.manager.states[name].csr_pattern()) for s in sessions}) == 1


# ----------------------------------------------------------------------
# Cross-process properties
# ----------------------------------------------------------------------
_INFER_SNIPPET = """
import json, sys
import numpy as np
from repro.serve import ModelRegistry
registry = ModelRegistry().load_package("m", sys.argv[1])
session = registry.session("m", max_batch=4)
rng = np.random.default_rng(7)
out = session.predict(rng.standard_normal((4, 16)).astype(np.float32))
bad = [m for m in sys.modules
       if m.startswith("repro.train") or m.startswith("repro.experiments")]
print(json.dumps({"digest": out.tobytes().hex(), "training_modules": bad}))
"""


def run_packaged_inference(path):
    result = subprocess.run(
        [sys.executable, "-c", _INFER_SNIPPET, str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestCrossProcess:
    def test_export_load_infer_bit_stable_across_processes(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="int8")
        first = run_packaged_inference(path)
        second = run_packaged_inference(path)
        assert first["digest"] == second["digest"]
        # and the in-process load agrees byte-for-byte too
        registry = ModelRegistry().load_package("m", path)
        out = registry.session("m", max_batch=4).predict(
            np.random.default_rng(7).standard_normal((4, 16)).astype(
                np.float32)
        )
        assert out.tobytes().hex() == first["digest"]

    def test_package_serving_never_imports_training_stack(self, tmp_path):
        _, _, path, _ = make_packaged_mlp(tmp_path, precision="f32")
        result = run_packaged_inference(path)
        assert result["training_modules"] == []
