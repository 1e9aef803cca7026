"""Shape manipulation ops: reshape, transpose, indexing, stack, where."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, concatenate, stack, where


def make(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


class TestReshapeTranspose:
    def test_reshape_values(self):
        a = Tensor(np.arange(6, dtype=np.float32))
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.reshape((3, 2)).shape == (3, 2)
        assert a.reshape(2, -1).shape == (2, 3)

    def test_reshape_gradient(self):
        a = make((2, 6), seed=1)
        check_gradients(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose_default_reverses(self):
        a = make((2, 3, 4), seed=2)
        assert a.T.shape == (4, 3, 2)

    def test_transpose_axes(self):
        a = make((2, 3, 4), seed=3)
        assert a.transpose(1, 0, 2).shape == (3, 2, 4)

    def test_transpose_gradient(self):
        a = make((3, 5), seed=4)
        check_gradients(lambda: (a.T @ a).sum(), [a])


class TestIndexing:
    def test_getitem_values(self):
        a = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        assert np.allclose(a[1].data, [4, 5, 6, 7])
        assert float(a[2, 3].data) == 11.0
        assert a[0:2].shape == (2, 4)

    def test_getitem_gradient_scatter(self):
        a = make((4, 3), seed=5)
        check_gradients(lambda: (a[1:3] ** 2).sum(), [a])

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        index = np.array([0, 0, 2])
        out = a[index]
        out.backward(np.ones(3, dtype=np.float32))
        assert np.allclose(a.grad, [2.0, 0.0, 1.0])


class TestCombinators:
    def test_stack_forward_backward(self):
        a = make((2, 3), seed=8)
        b = make((2, 3), seed=9)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        check_gradients(lambda: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_concatenate(self):
        a = make((2, 3), seed=10)
        b = make((4, 3), seed=11)
        out = concatenate([a, b], axis=0)
        assert out.shape == (6, 3)
        check_gradients(lambda: (concatenate([a, b], axis=0) ** 2).sum(), [a, b])

    def test_where(self):
        a = make((5,), seed=12)
        b = make((5,), seed=13)
        condition = np.array([True, False, True, False, True])
        out = where(condition, a, b)
        assert np.allclose(out.data, np.where(condition, a.data, b.data))
        check_gradients(lambda: where(condition, a, b).sum(), [a, b])


class TestCloneDetach:
    def test_detach_shares_data_no_grad(self):
        a = make((3,), seed=14)
        d = a.detach()
        assert not d.requires_grad
        assert d.data is a.data

    def test_clone_flows_gradient(self):
        a = make((3,), seed=15)
        check_gradients(lambda: (a.clone() * 2).sum(), [a])

    def test_len_and_repr(self):
        a = Tensor(np.zeros((4, 2), dtype=np.float32))
        assert len(a) == 4
        assert "shape=(4, 2)" in repr(a)
