"""Arithmetic and reduction operations with gradient verification."""

import numpy as np
import pytest

import repro.tensor.tensor as tensor_module
from repro.tensor import Tensor, check_gradients, where


def make(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32) * scale, requires_grad=True)


class TestForwardValues:
    def test_add(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((a + 1.5).data, [2.5, 3.5])
        assert np.allclose((1.5 + a).data, [2.5, 3.5])

    def test_sub(self):
        a = Tensor([5.0, 2.0])
        assert np.allclose((a - 1.0).data, [4.0, 1.0])
        assert np.allclose((10.0 - a).data, [5.0, 8.0])

    def test_mul_div(self):
        a = Tensor([2.0, 4.0])
        assert np.allclose((a * 3).data, [6.0, 12.0])
        assert np.allclose((a / 2).data, [1.0, 2.0])
        assert np.allclose((8.0 / a).data, [4.0, 2.0])

    def test_neg_pow(self):
        a = Tensor([2.0, -3.0])
        assert np.allclose((-a).data, [-2.0, 3.0])
        assert np.allclose((a ** 2).data, [4.0, 9.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose((a @ b).data, a.data)

    def test_sum_mean(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert float(a.sum().data) == 15.0
        assert float(a.mean().data) == 2.5
        assert np.allclose(a.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_var(self):
        data = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        a = Tensor(data)
        assert np.isclose(float(a.var().data), data.var())

    def test_max(self):
        a = Tensor([[1.0, 5.0], [3.0, 2.0]])
        assert float(a.max().data) == 5.0
        assert np.allclose(a.max(axis=0).data, [3.0, 5.0])

    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 3.0])
        result = a > 2.0
        assert isinstance(result, np.ndarray)
        assert result.tolist() == [False, True]

    def test_elementwise_functions(self):
        a = Tensor([0.0, 1.0])
        assert np.allclose(a.exp().data, np.exp(a.data))
        assert np.allclose(a.sigmoid().data, 1 / (1 + np.exp(-a.data)))
        assert np.allclose(a.tanh().data, np.tanh(a.data))
        b = Tensor([-2.0, 3.0])
        assert np.allclose(b.abs().data, [2.0, 3.0])
        assert np.allclose(b.relu().data, [0.0, 3.0])
        assert np.allclose(b.clip(-1.0, 1.0).data, [-1.0, 1.0])
        assert np.allclose(b.maximum(0.0).data, [0.0, 3.0])

    def test_sqrt_log(self):
        a = Tensor([4.0, 9.0])
        assert np.allclose(a.sqrt().data, [2.0, 3.0])
        assert np.allclose(a.log().data, np.log(a.data))


class TestGradients:
    def test_add_broadcast(self):
        a = make((3, 4), seed=1)
        b = make((4,), seed=2)
        check_gradients(lambda: ((a + b) ** 2).sum(), [a, b])

    def test_mul_broadcast(self):
        a = make((2, 3), seed=3)
        b = make((2, 1), seed=4)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div(self):
        a = make((3,), seed=5)
        b = Tensor(np.array([1.5, 2.0, -1.2], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_pow(self):
        a = Tensor(np.array([1.2, 2.0, 0.7], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: (a ** 3).sum(), [a])

    def test_matmul(self):
        a = make((3, 4), seed=6, scale=0.5)
        b = make((4, 2), seed=7, scale=0.5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched(self):
        a = make((2, 3, 4), seed=8, scale=0.5)
        b = make((2, 4, 5), seed=9, scale=0.5)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_mean_axis(self):
        a = make((4, 5), seed=10)
        check_gradients(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_var(self):
        a = make((6,), seed=11)
        check_gradients(lambda: a.var(), [a])

    def test_exp_log_chain(self):
        a = Tensor(np.array([0.5, 1.0, 2.0], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: (a.exp() + 1.0).log().sum(), [a])

    def test_sigmoid_tanh(self):
        a = make((5,), seed=12)
        check_gradients(lambda: a.sigmoid().sum(), [a])
        check_gradients(lambda: a.tanh().sum(), [a])

    def test_sqrt(self):
        a = Tensor(np.array([1.0, 4.0, 2.5], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: a.sqrt().sum(), [a])

    def test_maximum(self):
        a = make((4,), seed=13)
        b = make((4,), seed=14)
        check_gradients(lambda: a.maximum(b).sum(), [a, b])

    def test_gradient_accumulates_on_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        loss = a * a + a  # df/da = 2a + 1 = 5
        loss.backward()
        assert np.isclose(a.grad[0], 5.0)

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        (a * 3).backward()
        assert np.isclose(a.grad[0], 5.0)

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None


class TestBackwardSemantics:
    def test_backward_nonscalar_requires_grad_arg(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 0.5], dtype=np.float32))
        assert np.allclose(a.grad, [3.0, 1.5])

    def test_no_grad_for_constant_tensors(self):
        a = Tensor([1.0])
        out = a * 2
        assert not out.requires_grad
        assert out._prev == ()


class TestConstantOperands:
    """A binary op's backward computes no gradient for an operand that
    does not require one (a wrapped float, a dropout mask, a threshold):
    its ``_unbroadcast`` never runs, and the other operand's gradient
    keeps its bits."""

    OPS = {
        "add": (lambda v, c: v + c, lambda g, v, c: g),
        "radd": (lambda v, c: c + v, lambda g, v, c: g),
        "sub": (lambda v, c: v - c, lambda g, v, c: g),
        "rsub": (lambda v, c: c - v, lambda g, v, c: -g),
        "mul": (lambda v, c: v * c, lambda g, v, c: g * c.data),
        "div": (lambda v, c: v / c, lambda g, v, c: g / c.data),
        "rdiv": (lambda v, c: c / v,
                 lambda g, v, c: -g * c.data / (v.data ** 2)),
        "maximum": (lambda v, c: v.maximum(c),
                    lambda g, v, c: g * (v.data >= c.data).astype(np.float32)),
        "where": (lambda v, c: where(v.data > 0.0, v, c), lambda g, v, c: g * (v.data > 0.0)),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_constant_gradient_is_never_formed(self, op, monkeypatch):
        forward, expected = self.OPS[op]
        v = make((4, 5), seed=1)
        c = Tensor(np.random.default_rng(2).uniform(0.5, 1.5, 5).astype(np.float32))
        shapes = []

        def spy(grad, shape):
            shapes.append(shape)
            return original(grad, shape)

        original = tensor_module._unbroadcast
        monkeypatch.setattr(tensor_module, "_unbroadcast", spy)
        upstream = np.random.default_rng(3).standard_normal((4, 5)).astype(np.float32)
        forward(v, c).backward(upstream)
        assert c.shape not in shapes
        assert c.grad is None
        assert v.grad.tobytes() == np.asarray(expected(upstream, v, c), np.float32).tobytes()

    def test_matmul_against_a_constant_matrix(self, monkeypatch):
        v = make((4, 5), seed=1)
        c = Tensor(np.random.default_rng(2).standard_normal((5, 3)).astype(np.float32))
        shapes = []
        original = tensor_module._unbroadcast
        monkeypatch.setattr(tensor_module, "_unbroadcast",
                            lambda grad, shape: shapes.append(shape) or original(grad, shape))
        upstream = np.random.default_rng(3).standard_normal((4, 3)).astype(np.float32)
        (v @ c).backward(upstream)
        assert shapes == [(4, 5)]
        assert c.grad is None
        assert v.grad.tobytes() == (upstream @ c.data.T).tobytes()


class TestGradientOwnership:
    """``_accumulate`` copies a first gradient unless the backward just
    built it (``owned``), and never lets two tensors share one array."""

    def test_add_parents_of_one_upstream_array_do_not_alias(self):
        a, b = make((3, 4), seed=1), make((3, 4), seed=2)
        upstream = np.ones((3, 4), dtype=np.float32)
        (a + b).backward(upstream)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, upstream)
        a.grad += 1.0
        assert np.array_equal(b.grad, upstream)
        assert np.array_equal(upstream, np.ones((3, 4), dtype=np.float32))

    def test_an_owned_fresh_array_becomes_the_grad(self):
        t = make((2, 3))
        fresh = np.full((3, 2), 2.0, dtype=np.float32).T  # dense, F-ordered
        t._accumulate(fresh, owned=True)
        assert t.grad is fresh
        t._accumulate(fresh.copy(), owned=True)  # later gradients add in
        assert np.array_equal(t.grad, np.full((2, 3), 4.0, dtype=np.float32))

    @pytest.mark.parametrize("grad", [
        np.ones((4, 6), dtype=np.float32)[:, ::2],  # strided: a copy would change layout
        np.ones((2, 3), dtype=np.float64),  # another dtype
        np.broadcast_to(np.ones(3, dtype=np.float32), (2, 3)),  # read-only, overlapping
    ], ids=["strided", "float64", "broadcast"])
    def test_an_owned_array_a_copy_would_change_is_copied(self, grad):
        t = make(grad.shape)
        t._accumulate(grad, owned=True)
        assert not np.shares_memory(t.grad, grad)
        assert t.grad.dtype == np.float32
        assert np.array_equal(t.grad, grad.astype(np.float32))

    def test_unowned_first_gradient_is_copied(self):
        t = make((2, 2))
        grad = np.ones((2, 2), dtype=np.float32)
        t._accumulate(grad)
        assert not np.shares_memory(t.grad, grad)
