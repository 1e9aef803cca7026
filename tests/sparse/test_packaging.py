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
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.serve import InferenceSession, ModelRegistry
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
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
        bound = scales[row_of] / 2.0 + 1e-7
        assert np.all(np.abs(restored - values) <= bound)

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
