"""CSR sparse storage (§III-D backing implementation).

:class:`~repro.sparse.CSRPattern` is the one CSR container: these tests
pin its encoding of 2-D and 4-D weight tensors (the paper's
``(F, C*kh*kw)`` reshape) and the §III-D bit count built on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Module
from repro.nn.layers import Conv2d
from repro.sparse import CSRPattern, MaskManager, model_csr_storage_bits
from repro.snn.models import SpikingMLP


def sparse_tensor(shape, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape).astype(np.float32)
    mask = rng.random(shape) < density
    return dense * mask


def encode(tensor):
    """CSR pattern of ``tensor``'s non-zeros, values gathered."""
    pattern = CSRPattern.from_mask(tensor != 0)
    return pattern, pattern.gather(tensor)


def decode(pattern, values):
    """Dense tensor back from CSR, through the kernel (``W @ I``)."""
    dense = pattern.matmul(values, np.eye(pattern.shape[1], dtype=np.float32))
    return dense.reshape(pattern.orig_shape)


class TestRoundTrip:
    def test_2d_roundtrip(self):
        tensor = sparse_tensor((6, 8))
        assert np.array_equal(decode(*encode(tensor)), tensor)

    def test_4d_roundtrip(self):
        tensor = sparse_tensor((4, 3, 3, 3), seed=1)
        decoded = decode(*encode(tensor))
        assert decoded.shape == tensor.shape
        assert np.array_equal(decoded, tensor)

    def test_all_zero(self):
        tensor = np.zeros((3, 4), dtype=np.float32)
        pattern, values = encode(tensor)
        assert pattern.nnz == 0
        assert np.array_equal(decode(pattern, values), tensor)

    def test_fully_dense(self):
        tensor = np.ones((3, 4), dtype=np.float32)
        pattern, _ = encode(tensor)
        assert pattern.nnz == 12
        assert pattern.density == 1.0

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            CSRPattern.from_mask(np.ones(5, dtype=np.float32))


class TestAccessors:
    def test_nnz_and_sparsity(self):
        tensor = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        pattern, _ = encode(tensor)
        assert pattern.nnz == 2
        assert pattern.density == 0.5

    def test_row(self):
        tensor = np.array([[1.0, 0.0, 3.0], [0.0, 0.0, 0.0]], dtype=np.float32)
        pattern, values = encode(tensor)
        start, stop = pattern.indptr[0], pattern.indptr[1]
        assert list(pattern.indices[start:stop]) == [0, 2]
        assert list(values[start:stop]) == [1.0, 3.0]
        assert pattern.indptr[2] == pattern.indptr[1]

    def test_matvec_matches_dense(self):
        tensor = sparse_tensor((5, 7), seed=2)
        x = np.random.default_rng(3).standard_normal(7).astype(np.float32)
        pattern, values = encode(tensor)
        assert np.allclose(pattern.matmul(values, x[:, None])[:, 0],
                           tensor @ x, atol=1e-5)

    def test_matvec_shape_check(self):
        pattern, values = encode(np.eye(2, 3, dtype=np.float32))
        with pytest.raises(ValueError):
            pattern.matmul(values, np.zeros((5, 1), dtype=np.float32))

    def test_storage_bits_formula(self):
        """``nnz`` values + ``nnz`` indices + ``rows + 1`` pointers."""

        class OneConv(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))

        model = OneConv()
        model.conv.weight.data = sparse_tensor((4, 3, 3, 3), seed=4)
        nnz = int(np.count_nonzero(model.conv.weight.data))
        assert model_csr_storage_bits(model) == nnz * 32 * 2 + 5 * 32
        assert model_csr_storage_bits(model, value_bits=8, index_bits=16) == (
            nnz * (8 + 16) + 5 * 16
        )


class TestModelStorage:
    def test_matches_analytic_model(self):
        """Measured CSR bits agree with the §III-D formula (inference
        part: weights + indices + row pointers, t=0 gradient copies)."""
        model = SpikingMLP(in_features=20, num_classes=5, hidden=(16,), rng=np.random.default_rng(0))
        masks = MaskManager(model, rng=np.random.default_rng(1))
        masks.init_random({name: 0.25 for name in masks.masks})
        measured = model_csr_storage_bits(model)
        nnz = masks.total_nonzero
        rows = sum(p.shape[0] for p in masks.parameters.values())
        analytic = nnz * 32 + nnz * 32 + (rows + len(masks.masks)) * 32
        assert measured == analytic


@settings(max_examples=25, deadline=None)
@given(
    density=st.floats(min_value=0.0, max_value=1.0),
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
)
def test_roundtrip_property(density, rows, cols):
    tensor = sparse_tensor((rows, cols), density=density, seed=rows * 31 + cols)
    pattern, values = encode(tensor)
    assert np.array_equal(decode(pattern, values), tensor)
    assert pattern.nnz == np.count_nonzero(tensor)
