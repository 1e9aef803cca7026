"""CSR fast-path kernels: gradcheck and dense-parity at 50/90/99%.

Covers the :class:`~repro.sparse.storage.CSRPattern` kernels (float32,
plus the float16/int8 stored values and per-row scales packed artifacts
serve) and the dense-vs-CSR dispatch shim in
:mod:`repro.tensor.functional`.
"""

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Linear
from repro.sparse import CSRPattern, SparsityManager
from repro.tensor import (
    DISPATCH_COUNTS,
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


class FakeManager:
    """Minimal manager stub forcing one dispatch decision."""

    def __init__(self, csr=True):
        self.csr = csr

    def use_csr(self, state):
        return self.csr


class FakeState:
    """MaskedParameter stand-in for direct kernel testing."""

    def __init__(self, mask, csr=True):
        self.mask = mask
        self.manager = FakeManager(csr)
        self._pattern = None

    def csr_pattern(self):
        if self._pattern is None:
            self._pattern = CSRPattern.from_mask(self.mask)
        return self._pattern


def masked_layer_pair(shape, sparsity, seed):
    """A masked weight tensor plus its CSR state."""
    rng = np.random.default_rng(seed)
    mask = random_mask(shape, sparsity, seed=seed + 1)
    weight = Tensor((rng.standard_normal(shape) * 0.5).astype(np.float32) * mask,
                    requires_grad=True)
    return weight, mask, FakeState(mask)


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
        assert pattern._sp.data.dtype == dtype


class TestMaskedLinearCSR:
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
        fn = lambda: (masked_linear(x, weight, None, state) ** 2).sum()
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

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_gradients_match_dense_path(self, sparsity):
        weight, _, state = masked_layer_pair((6, 3, 3, 3), sparsity, seed=22)
        bias = Tensor(np.random.default_rng(23).standard_normal(6).astype(np.float32),
                      requires_grad=True)
        x_data = np.random.default_rng(24).standard_normal((2, 3, 8, 8)).astype(np.float32)
        grads = {}
        for label, st in (("dense", None), ("csr", state)):
            x = Tensor(x_data.copy(), requires_grad=True)
            weight.zero_grad(); bias.zero_grad()
            out = masked_conv2d(x, weight, bias, stride=2, padding=1, state=st)
            (out ** 2).sum().backward()
            grads[label] = (x.grad.copy(), weight.grad.copy(), bias.grad.copy())
        for dense_g, csr_g in zip(grads["dense"], grads["csr"]):
            np.testing.assert_allclose(csr_g, dense_g, atol=1e-4)

    @pytest.mark.parametrize("sparsity", SPARSITIES)
    def test_gradcheck_against_finite_differences(self, sparsity):
        weight, mask, state = masked_layer_pair((3, 2, 3, 3), sparsity, seed=25)
        x = Tensor(np.random.default_rng(26).standard_normal((1, 2, 5, 5)).astype(np.float32),
                   requires_grad=True)
        fn = lambda: (masked_conv2d(x, weight, None, stride=1, padding=1, state=state) ** 2).sum()
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
        assert bench.check_regressions(payload, payload) == []
        # A baseline claiming far better numbers must trip the gate.
        doctored = dict(payload)
        doctored["best_speedup_at_90"] = payload["best_speedup_at_90"] * 100.0
        failures = bench.check_regressions(doctored, payload)
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
        before = dict(DISPATCH_COUNTS)
        model(x)
        assert DISPATCH_COUNTS["csr"] == before["csr"] + 1
        # Re-densify: auto dispatch falls back to the dense kernels.
        manager.init_distribution("uniform", 0.9)
        before = dict(DISPATCH_COUNTS)
        model(x)
        assert DISPATCH_COUNTS["dense"] == before["dense"] + 1

    def test_unmasked_layers_take_dense_route(self):
        layer = Conv2d(2, 4, 3, rng=np.random.default_rng(41))
        x = Tensor(np.random.default_rng(42).standard_normal((1, 2, 6, 6)).astype(np.float32))
        before = dict(DISPATCH_COUNTS)
        layer(x)
        assert DISPATCH_COUNTS["dense"] == before["dense"] + 1
        assert DISPATCH_COUNTS["csr"] == before["csr"]

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
