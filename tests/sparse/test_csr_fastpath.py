"""CSR fast-path kernels: gradcheck and dense-parity at 50/90/99%.

Covers the :class:`~repro.sparse.storage.CSRPattern` kernels (float32,
plus the float16/int8 stored values and per-row scales packed artifacts
serve) and the dense-vs-CSR dispatch of the masked layer ops
(:meth:`repro.sparse.engine.MaskedParameter.products`).
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module, Parameter
from repro.sparse import CSRPattern, SparsityManager
from repro.tensor import (
    Tensor,
    check_gradients,
    masked_conv2d,
    masked_linear,
    numeric_gradient,
)

SPARSITIES = (0.5, 0.9, 0.99)


def random_mask(shape, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    keep = max(1, int(round((1.0 - sparsity) * size)))
    mask = np.zeros(size, dtype=np.float32)
    mask[rng.choice(size, size=keep, replace=False)] = 1.0
    return mask.reshape(shape)


def masked_layer_pair(shape, sparsity, seed):
    """A masked weight, its mask, and the weight's real MaskedParameter
    in a one-layer SparsityManager under ``csr`` execution."""
    rng = np.random.default_rng(seed)
    mask = random_mask(shape, sparsity, seed=seed + 1)
    layer = Module()
    layer.weight = Parameter((rng.standard_normal(shape) * 0.5).astype(np.float32) * mask)
    manager = SparsityManager(layer)
    manager.load_masks({"weight": mask})
    manager.set_execution("csr")
    return layer.weight, mask, manager.states["weight"]


class TestCSRPatternKernels:
    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_matmul_matches_dense(self, sparsity):
        weight, mask, state = masked_layer_pair((24, 32), sparsity, seed=3)
        x = np.random.default_rng(4).standard_normal((32, 8)).astype(np.float32)
        pattern = state.csr_pattern()
        data = pattern.gather(weight.data)
        out = pattern.matmul(data, x)
        np.testing.assert_allclose(out, (weight.data * mask) @ x, atol=1e-5)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_t_matmul_matches_dense(self, sparsity):
        weight, mask, state = masked_layer_pair((24, 32), sparsity, seed=5)
        g = np.random.default_rng(6).standard_normal((24, 8)).astype(np.float32)
        pattern = state.csr_pattern()
        data = pattern.gather(weight.data)
        out = pattern.t_matmul(data, g)
        np.testing.assert_allclose(out, (weight.data * mask).T @ g, atol=1e-5)

    def test_4d_mask_uses_paper_reshape(self):
        mask = random_mask((6, 3, 3, 3), 0.5, seed=7)
        pattern = CSRPattern.from_mask(mask)
        assert pattern.shape == (6, 27)
        assert pattern.nnz == int(mask.sum())

    def test_density_property(self):
        mask = random_mask((10, 10), 0.9, seed=8)
        pattern = CSRPattern.from_mask(mask)
        assert pattern.density == pytest.approx(mask.mean(), abs=1e-6)

    def test_empty_rows_are_zero(self):
        mask = np.zeros((4, 6), dtype=np.float32)
        mask[1, 2] = 1.0  # rows 0, 2, 3 completely empty
        pattern = CSRPattern.from_mask(mask)
        weight = np.ones((4, 6), dtype=np.float32)
        x = np.ones((6, 3), dtype=np.float32)
        out = pattern.matmul(pattern.gather(weight), x)
        assert np.all(out[[0, 2, 3]] == 0.0)
        assert np.all(out[1] == 1.0)

    @pytest.mark.parametrize("dtype", [np.float16, np.int8])
    def test_stored_values_with_row_scales(self, dtype):
        """f16/int8 value buffers run as-is; ``scales`` rescales rows."""
        mask = random_mask((12, 20), 0.8, seed=9)
        rng = np.random.default_rng(10)
        stored = (rng.integers(-127, 128, mask.shape) * mask).astype(dtype)
        scales = rng.uniform(0.01, 0.1, 12).astype(np.float32)
        pattern = CSRPattern.from_mask(mask)
        values = stored.reshape(-1)[pattern.flat_index]
        pattern = CSRPattern.from_arrays(
            pattern.indices, pattern.indptr, pattern.shape, pattern.orig_shape,
            values=values,
        )
        pattern.scales = scales
        pattern.freeze()
        weight = scales[:, None] * stored.astype(np.float32)
        x = rng.standard_normal((20, 5)).astype(np.float32)
        g = rng.standard_normal((12, 5)).astype(np.float32)
        out = pattern.matmul(pattern.values, x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, weight @ x, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(pattern.t_matmul(pattern.values, g),
                                   weight.T @ g, rtol=1e-5, atol=1e-4)
        # The stored buffer is served as it is: never copied or recast.
        assert pattern.values is values
        assert values.dtype == dtype

    @pytest.mark.parametrize("columns", [1, 8, 16])
    @pytest.mark.parametrize("precision", ["f32", "f16", "int8"])
    def test_products_are_bit_identical_to_scipy(self, precision, columns):
        mask = random_mask((16, 24), 0.8, seed=13)
        mask[[2, 9]] = 0.0  # empty rows
        rng = np.random.default_rng(14)
        pattern = CSRPattern.from_mask(mask)
        values = pattern.gather(rng.standard_normal(mask.shape).astype(np.float32))
        if precision == "f16":
            values = values.astype(np.float16)
        elif precision == "int8":
            values = rng.integers(-127, 128, pattern.nnz).astype(np.int8)
            pattern.scales = rng.uniform(0.01, 0.1, 16).astype(np.float32)
        oracle = csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)
        # Row-major activations seen through .T, as masked_linear passes them.
        x = rng.standard_normal((columns, 24)).astype(np.float32)
        g = rng.standard_normal((columns, 16)).astype(np.float32)
        if pattern.scales is None:
            want, want_t = oracle @ x.T, oracle.T @ g.T
        else:  # W = diag(scales) @ Q: rescale rows after, the operand before
            scales = pattern.scales[:, None]
            want, want_t = (oracle @ x.T) * scales, oracle.T @ (scales * g.T)
        got = pattern.matmul(values, x.T)
        got_t = pattern.t_matmul(values, g.T)
        assert got.dtype == got_t.dtype == np.float32
        assert got.shape == (16, columns) and got_t.shape == (24, columns)
        assert got.tobytes() == np.asarray(want).tobytes()
        assert got_t.tobytes() == np.asarray(want_t).tobytes()
        assert np.all(got[[2, 9]] == 0.0)

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("product", ["matmul", "t_matmul"])
    def test_products_reject_a_wrong_length_operand(self, product, columns):
        # The compiled kernels have no bounds check: a short operand
        # would be read past its end and return garbage instead of failing.
        pattern = CSRPattern.from_mask(random_mask((16, 24), 0.8, seed=13))
        values = pattern.gather(np.ones((16, 24), dtype=np.float32))
        # Checked before t_matmul's row scales could broadcast the operand.
        pattern.scales = np.ones(16, dtype=np.float32)
        short = np.ones((1 if columns == 1 else 5, columns), dtype=np.float32)
        with pytest.raises(ValueError, match=rf"\(16, 24\) @ operand \({len(short)}, {columns}\)"):
            getattr(pattern, product)(values, short)

    @pytest.mark.parametrize("product", ["matmul", "t_matmul"])
    def test_products_reject_a_short_value_buffer(self, product):
        pattern = CSRPattern.from_mask(random_mask((16, 24), 0.8, seed=13))
        short = np.ones(pattern.nnz - 1, dtype=np.float32)
        operand = np.ones((24 if product == "matmul" else 16, 3), dtype=np.float32)
        with pytest.raises(ValueError, match=rf"{pattern.nnz - 1} entries, pattern has {pattern.nnz}"):
            getattr(pattern, product)(short, operand)

    @pytest.mark.parametrize("product", ["matmul", "t_matmul"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_products_never_touch_the_value_buffer(self, product, dtype):
        mask = random_mask((16, 24), 0.8, seed=15)
        rng = np.random.default_rng(16)
        pattern = CSRPattern.from_mask(mask)
        before = pattern.gather(rng.standard_normal(mask.shape).astype(np.float32))
        saved = before.tobytes()
        foreign = rng.standard_normal(pattern.nnz).astype(dtype)
        operand = np.ones((24 if product == "matmul" else 16, 3), dtype=np.float32)
        getattr(pattern, product)(foreign, operand)
        assert pattern.values is before
        assert pattern.values.dtype == np.float32
        assert pattern.values.tobytes() == saved


class TestMaskedLinearCSR:
    @pytest.mark.parametrize("shape", [(16,), (2, 4, 16)])
    def test_rejects_inputs_that_are_not_rows(self, shape):
        weight, _, state = masked_layer_pair((12, 16), 0.5, seed=10)
        with pytest.raises(ValueError, match="takes \\(N, in\\) rows"):
            masked_linear(Tensor(np.zeros(shape, dtype=np.float32)), weight, None, state)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_forward_matches_dense_path(self, sparsity):
        weight, _, state = masked_layer_pair((12, 16), sparsity, seed=10)
        bias = Tensor(np.random.default_rng(11).standard_normal(12).astype(np.float32),
                      requires_grad=True)
        x = Tensor(np.random.default_rng(12).standard_normal((4, 16)).astype(np.float32),
                   requires_grad=True)
        dense = masked_linear(x, weight, bias, None)
        sparse = masked_linear(x, weight, bias, state)
        np.testing.assert_allclose(sparse.data, dense.data, atol=1e-5)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_gradients_match_dense_path(self, sparsity):
        weight, _, state = masked_layer_pair((12, 16), sparsity, seed=13)
        bias = Tensor(np.random.default_rng(14).standard_normal(12).astype(np.float32),
                      requires_grad=True)
        x_data = np.random.default_rng(15).standard_normal((4, 16)).astype(np.float32)

        grads = {}
        for label, st in (("dense", None), ("csr", state)):
            x = Tensor(x_data.copy(), requires_grad=True)
            weight.zero_grad(); bias.zero_grad()
            (masked_linear(x, weight, bias, st) ** 2).sum().backward()
            grads[label] = (x.grad.copy(), weight.grad.copy(), bias.grad.copy())
        for dense_g, csr_g in zip(grads["dense"], grads["csr"]):
            np.testing.assert_allclose(csr_g, dense_g, atol=1e-5)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_gradcheck_against_finite_differences(self, sparsity):
        weight, mask, state = masked_layer_pair((5, 7), sparsity, seed=16)
        x = Tensor(np.random.default_rng(17).standard_normal((3, 7)).astype(np.float32),
                   requires_grad=True)
        def fn():
            state.mark_values_dirty()  # the weight probe edits values in place
            return (masked_linear(x, weight, None, state) ** 2).sum()

        check_gradients(fn, [x])
        # The weight gradient is dense by design (regrowth scoring), so
        # finite differences only apply at the *active* positions that
        # the CSR forward actually reads.
        weight.zero_grad(); x.zero_grad()
        fn().backward()
        numeric = numeric_gradient(fn, weight)
        np.testing.assert_allclose(weight.grad * mask, numeric * mask,
                                   atol=1e-2 * max(1.0, np.abs(numeric).max()))

    def test_weight_gradient_is_dense(self):
        # Regrowth criteria score *inactive* positions by gradient
        # magnitude; the CSR path must not sparsify the weight gradient.
        weight, mask, state = masked_layer_pair((8, 10), 0.9, seed=18)
        x = Tensor(np.random.default_rng(19).standard_normal((4, 10)).astype(np.float32))
        weight.zero_grad()
        (masked_linear(x, weight, None, state) ** 2).sum().backward()
        inactive = mask == 0
        assert np.abs(weight.grad[inactive]).max() > 0.0


class TestMaskedConvCSR:
    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_forward_matches_dense_path(self, sparsity):
        weight, _, state = masked_layer_pair((6, 3, 3, 3), sparsity, seed=20)
        x = Tensor(np.random.default_rng(21).standard_normal((2, 3, 8, 8)).astype(np.float32))
        dense = masked_conv2d(x, weight, None, stride=1, padding=1, state=None)
        sparse = masked_conv2d(x, weight, None, stride=1, padding=1, state=state)
        np.testing.assert_allclose(sparse.data, dense.data, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [
        (2, 1), (np.int64(2), np.int64(1)), ((2, 2), (1, 1)),
    ])
    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_gradients_match_dense_path(self, sparsity, stride, padding):
        # int, numpy-integer and tuple geometry all normalise the same
        # way on both routes.
        weight, _, state = masked_layer_pair((6, 3, 3, 3), sparsity, seed=22)
        bias = Tensor(np.random.default_rng(23).standard_normal(6).astype(np.float32),
                      requires_grad=True)
        x_data = np.random.default_rng(24).standard_normal((2, 3, 8, 8)).astype(np.float32)
        grads = {}
        for label, st in (("dense", None), ("csr", state)):
            x = Tensor(x_data.copy(), requires_grad=True)
            weight.zero_grad(); bias.zero_grad()
            out = masked_conv2d(x, weight, bias, stride=stride, padding=padding, state=st)
            (out ** 2).sum().backward()
            grads[label] = (x.grad.copy(), weight.grad.copy(), bias.grad.copy())
        for dense_g, csr_g in zip(grads["dense"], grads["csr"]):
            np.testing.assert_allclose(csr_g, dense_g, atol=1e-4)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_gradcheck_against_finite_differences(self, sparsity):
        weight, mask, state = masked_layer_pair((3, 2, 3, 3), sparsity, seed=25)
        x = Tensor(np.random.default_rng(26).standard_normal((1, 2, 5, 5)).astype(np.float32),
                   requires_grad=True)
        def fn():
            state.mark_values_dirty()  # the weight probe edits values in place
            return (masked_conv2d(x, weight, None, stride=1, padding=1, state=state) ** 2).sum()

        check_gradients(fn, [x])
        weight.zero_grad(); x.zero_grad()
        fn().backward()
        numeric = numeric_gradient(fn, weight)
        np.testing.assert_allclose(weight.grad * mask, numeric * mask,
                                   atol=1e-2 * max(1.0, np.abs(numeric).max()))


def load_bench_module():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "bench_kernels.py")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.mark.smoke
class TestBenchComparisonMode:
    def test_comparison_cell_is_correct_and_complete(self):
        bench = load_bench_module()
        cell = bench.compare_masked_matmul(64, 64, 8, 0.9, repeats=2)
        assert cell["max_abs_error"] < 1e-4
        for key in ("dense_us", "csr_kernel_us", "speedup_kernel",
                    "speedup_with_refresh", "speedup_transposed",
                    "refresh_us", "refresh_overhead", "speedup_train_step"):
            assert cell[key] > 0.0

    def test_conv_cell_is_correct_and_complete(self):
        bench = load_bench_module()
        cell = bench.compare_masked_conv(4, 3, 3, 8, 8, 2, 0.9, repeats=2)
        assert cell["max_abs_error"] < 1e-4
        assert cell["dense_us"] > 0.0 and cell["csr_us"] > 0.0


@pytest.mark.smoke
class TestBenchRegressionGate:
    """The ``--check`` gate mechanism (not the machine-specific timings)."""

    def test_self_baseline_passes_and_doctored_baseline_fails(self, tmp_path):
        import json

        bench = load_bench_module()
        payload = bench.run_comparison(
            shapes=((64, 64, 8),), sparsities=(0.9,),
            conv_shapes=((4, 3, 3, 8, 8, 2),), repeats=2,
        )
        # A payload checked against itself can never regress.
        assert bench.GATE.check(payload, payload) == []
        # A baseline claiming far better numbers must trip the gate.
        doctored = dict(payload)
        doctored["best_speedup_at_90"] = payload["best_speedup_at_90"] * 100.0
        failures = bench.GATE.check(doctored, payload)
        assert any("best_speedup_at_90" in failure for failure in failures)

    def test_check_cli_exit_codes(self, tmp_path):
        import json

        bench = load_bench_module()
        payload = bench.run_comparison(
            shapes=((64, 64, 8),), sparsities=(0.9,),
            conv_shapes=((4, 3, 3, 8, 8, 2),), repeats=2,
        )
        good = tmp_path / "baseline.json"
        # Headline floors of ~0 pass on any machine; this exercises the
        # full --check path (load, compare, exit code) without timing
        # flakiness.
        relaxed = dict(payload)
        for metric in bench.HEADLINE_METRICS:
            relaxed[metric] = 1e-6
        relaxed["refresh_overhead_at_90"] = 1e6
        good.write_text(json.dumps(relaxed))
        assert bench.main(["--check", str(good), "--repeats", "1"]) == 0
        bad = tmp_path / "doctored.json"
        doctored = dict(payload)
        doctored["min_auto_speedup"] = 1e6
        bad.write_text(json.dumps(doctored))
        assert bench.main(["--check", str(bad), "--repeats", "1"]) == 1


@pytest.mark.smoke
class TestDispatch:
    def test_layers_dispatch_by_measured_density(self):
        rng = np.random.default_rng(40)
        layer = Linear(32, 16, rng=rng)
        from repro.nn.module import Module

        class Wrapper(Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(x)

        model = Wrapper(layer)
        manager = SparsityManager(model, rng=rng)
        manager.init_distribution("uniform", 0.05)
        manager.bind_layers(execution="auto")
        x = Tensor(rng.standard_normal((4, 32)).astype(np.float32))
        model(x)
        assert manager.dispatch_counts == {"dense": 0, "csr": 1}
        # Re-densify: auto dispatch falls back to the dense kernels.
        manager.init_distribution("uniform", 0.9)
        model(x)
        assert manager.dispatch_counts == {"dense": 1, "csr": 1}

    @pytest.mark.parametrize("make_layer,shape", [
        (lambda rng: Conv2d(2, 4, 3, rng=rng), (2, 2, 6, 6)),
        (lambda rng: Linear(12, 5, rng=rng), (3, 12)),
    ], ids=["conv2d", "linear"])
    def test_unmasked_layers_take_dense_route(self, make_layer, shape):
        # An unbound layer counts nowhere, so its route shows in its bits:
        # they equal the same layer's output when bound on the dense route.
        layer = make_layer(np.random.default_rng(41))
        x = Tensor(np.random.default_rng(42).standard_normal(shape).astype(np.float32))
        unbound = layer(x).data
        manager = SparsityManager(layer)
        manager.bind_layers(execution="dense")
        bound = layer(x).data
        assert manager.dispatch_counts == {"dense": 1, "csr": 0}
        assert np.array_equal(unbound, bound)

    def test_training_parity_dense_vs_csr_execution(self):
        # One backward step under each execution mode: same loss, same grads.
        from repro.snn.models import SpikingMLP
        from repro.tensor import cross_entropy

        results = {}
        for mode in ("dense", "csr"):
            model = SpikingMLP(in_features=12, num_classes=3, hidden=(16,),
                               timesteps=2, rng=np.random.default_rng(43))
            manager = SparsityManager(model, rng=np.random.default_rng(44))
            manager.init_distribution("uniform", 0.1)
            manager.set_execution(mode)
            x = Tensor(np.random.default_rng(45).standard_normal((4, 12)).astype(np.float32))
            y = np.random.default_rng(46).integers(0, 3, 4)
            loss = cross_entropy(model(x), y)
            loss.backward()
            results[mode] = (
                float(loss.data),
                {n: p.grad.copy() for n, p in model.named_parameters() if p.grad is not None},
            )
        assert results["dense"][0] == pytest.approx(results["csr"][0], abs=1e-5)
        for name, dense_grad in results["dense"][1].items():
            np.testing.assert_allclose(results["csr"][1][name], dense_grad, atol=1e-5)
