"""Compressed sparse row (CSR) storage and compute kernels.

Section III-D of the paper counts training memory assuming CSR storage
of the sparse weight matrices (one column index per non-zero plus one
row pointer per filter row).  :class:`CSRPattern` is that storage made
executable, and the one sparse runtime the library has: 4-D convolution
filters are stored as ``(F, C*kh*kw)`` matrices, matching the paper's
reshaping convention.

A pattern caches the index structure of a *mask* (which only changes at
drop-and-grow rounds) separately from the weight *values* (which change
every optimizer step), and exposes the two products the training step
needs — ``W @ X`` for the forward pass and ``W^T @ G`` for the input
gradient — through SciPy's sparse kernels.  The same pattern serves
packed artifacts at their stored value precision: f16 or int8 values
go straight to SciPy (which accumulates in float32), and int8 rows are
rescaled by an optional per-row ``scales`` array after the product.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse as _scipy_sparse


def _as_matrix(tensor: np.ndarray) -> np.ndarray:
    """Reshape a weight tensor to the paper's 2-D convention."""
    if tensor.ndim == 2:
        return tensor
    if tensor.ndim == 4:
        return tensor.reshape(tensor.shape[0], -1)
    raise ValueError(f"unsupported tensor rank {tensor.ndim} (need 2-D or 4-D)")


class CSRPattern:
    """Cached CSR index structure of a binary mask.

    The pattern (column indices + row pointers + flat gather indices)
    is built once per topology change.  Weight values live in the
    persistent ``values`` buffer: :meth:`gather` refreshes it from the
    dense weights, and with write-through maintenance (the optimizer
    step updates it directly, see
    :meth:`~repro.sparse.engine.MaskedParameter.write_through`) the
    kernels run without any per-call re-gather.  The cached SciPy
    ``csr_matrix`` and its transpose view share ``values`` as their data
    buffer, so forward and input-gradient products both run at sparse
    cost from a single refresh.

    ``scales`` (``None`` unless set) is a per-row float32 multiplier
    applied to the product, ``W = diag(scales) @ Q``: packed int8
    values are served this way without dequantizing them.
    """

    __slots__ = ("shape", "orig_shape", "indices", "indptr", "flat_index", "nnz",
                 "values", "scales", "frozen", "_sp", "_sp_t")

    def __init__(self, mask: np.ndarray) -> None:
        matrix = _as_matrix(np.asarray(mask))
        row_idx, col_idx = np.nonzero(matrix)
        rows, cols = matrix.shape
        self.shape = matrix.shape
        self.orig_shape = tuple(np.asarray(mask).shape)
        self.indices = col_idx.astype(np.int32)
        self.indptr = np.zeros(rows + 1, dtype=np.int32)
        np.cumsum(np.bincount(row_idx, minlength=rows), out=self.indptr[1:])
        # Gather indices stay at the platform index width: np.take casts
        # narrower dtypes to intp on every call, which costs more than
        # the saved index traffic (measured ~25% slower per refresh).
        self.flat_index = (row_idx * cols + col_idx).astype(np.intp)
        self.nnz = int(self.flat_index.size)
        self.values = np.empty(self.nnz, dtype=np.float32)
        self.scales: Optional[np.ndarray] = None
        self.frozen = False
        self._sp = None
        self._sp_t = None

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "CSRPattern":
        return cls(mask)

    @classmethod
    def from_arrays(
        cls,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: Tuple[int, int],
        orig_shape: Tuple[int, ...],
        values: Optional[np.ndarray] = None,
    ) -> "CSRPattern":
        """Build a pattern directly from CSR arrays (no dense mask).

        The package loader (:mod:`repro.sparse.packaging`) uses this to
        reconstruct serving patterns without ever materializing a dense
        mask: ``values`` may be any float32, float16 or int8 buffer —
        including a read-only view into an mmap'd artifact, which the
        pattern then aliases instead of copying.  ``flat_index`` (only needed by
        :meth:`gather`, which frozen serving never calls) is built
        lazily.
        """
        self = object.__new__(cls)
        rows, cols = (int(shape[0]), int(shape[1]))
        self.shape = (rows, cols)
        self.orig_shape = tuple(int(d) for d in orig_shape)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        if self.indptr.size != rows + 1:
            raise ValueError(
                f"indptr has {self.indptr.size} entries for {rows} rows"
            )
        self.flat_index = None
        self.nnz = int(self.indices.size)
        if values is not None:
            if values.size != self.nnz:
                raise ValueError(
                    f"values buffer has {values.size} entries, pattern has "
                    f"{self.nnz} non-zeros"
                )
            self.values = values
        else:
            self.values = np.empty(self.nnz, dtype=np.float32)
        self.scales = None
        self.frozen = False
        self._sp = None
        self._sp_t = None
        return self

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    # ------------------------------------------------------------------
    # Inference freezing
    # ------------------------------------------------------------------
    def freeze(self) -> "CSRPattern":
        """Lock the value buffer for inference serving.

        A frozen pattern's ``values`` are read-only at the numpy level:
        :meth:`gather` and any in-place refresh raise instead of
        silently mutating the weights a server is concurrently reading.
        The index structure was already immutable.  Idempotent.
        """
        self.values.setflags(write=False)
        self.frozen = True
        return self

    def thaw(self) -> "CSRPattern":
        """Reverse :meth:`freeze`; the pattern is trainable again."""
        self.values.setflags(write=True)
        self.frozen = False
        return self

    # ------------------------------------------------------------------
    # Value refresh
    # ------------------------------------------------------------------
    def gather(self, weight: np.ndarray) -> np.ndarray:
        """Refresh ``values`` from the dense weights (CSR order).

        The persistent buffer is returned; it doubles as the cached
        SciPy matrix's data buffer, so no further copy happens when a
        kernel runs.
        """
        if self.frozen:
            raise RuntimeError(
                "cannot gather into a frozen CSRPattern: the value buffer "
                "is read-only for inference; call thaw() first"
            )
        if self.flat_index is None:
            # Patterns built via from_arrays defer this (serving never
            # gathers); rebuild it on the first trainable use.
            rows = np.repeat(
                np.arange(self.shape[0]), np.diff(self.indptr)
            )
            self.flat_index = (
                rows * self.shape[1] + self.indices.astype(np.intp)
            ).astype(np.intp)
        flat = np.ascontiguousarray(weight).reshape(-1)
        values = self._values_buffer(flat.dtype)
        np.take(flat, self.flat_index, out=values)
        return values

    def _values_buffer(self, dtype) -> np.ndarray:
        if self.values.dtype != dtype:
            if self.frozen:
                raise RuntimeError(
                    "cannot reallocate a frozen CSRPattern's value buffer"
                )
            self.values = np.empty(self.nnz, dtype=dtype)
            self._sp = None
            self._sp_t = None
        return self.values

    @staticmethod
    def _aliases(cached: np.ndarray, data: np.ndarray) -> bool:
        """True when ``cached`` already is (a view of) ``data``.

        SciPy wraps the data array it is constructed around in a view,
        so an identity check alone misses the shared-buffer case — and
        would both waste a copy per kernel call and fault on frozen
        (read-only) value buffers.  The base chain is not reliable
        either (views of ``np.memmap``-backed package buffers re-root
        it), so fall back to comparing the raw data pointers.
        """
        if cached is data or cached.base is data:
            return True
        return (
            cached.dtype == data.dtype
            and cached.nbytes == data.nbytes
            and cached.__array_interface__["data"][0]
            == data.__array_interface__["data"][0]
        )

    def _scipy_matrix(self, dtype):
        if self._sp is None or self._sp.data.dtype != dtype:
            data = self._values_buffer(dtype)
            self._sp = _scipy_sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=self.shape
            )
            # Transpose view shares the data buffer: one gather feeds
            # both the forward and the transposed product.
            self._sp_t = self._sp.T
        return self._sp

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _bound_matrix(self, data: np.ndarray):
        sp = self._scipy_matrix(data.dtype)
        if not self._aliases(sp.data, data):
            sp.data[:] = data
        return sp

    def matmul(self, data: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """``W @ dense`` where ``W`` is this pattern with ``data`` values.

        ``dense`` has shape ``(cols, m)``; returns ``(rows, m)``.
        """
        out = np.asarray(self._bound_matrix(data) @ dense)
        if self.scales is not None:
            out *= self.scales[:, None]
        return out

    def t_matmul(self, data: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """``W^T @ dense``; ``dense`` is ``(rows, m)``, returns ``(cols, m)``."""
        self._bound_matrix(data)
        if self.scales is not None:
            dense = self.scales[:, None] * dense
        return np.asarray(self._sp_t @ dense)


def model_csr_storage_bits(
    model, value_bits: int = 32, index_bits: int = 32
) -> int:
    """Exact CSR storage of every sparsifiable weight in a model.

    ``nnz`` values + ``nnz`` column indices + ``rows + 1`` row pointers
    per weight matrix (4-D filters counted as ``(F, C*kh*kw)``).  This
    is the measured counterpart of the §III-D analytic formula; tests
    verify the two agree.
    """
    from .mask import sparsifiable_parameters

    total = 0
    for _, parameter in sparsifiable_parameters(model):
        row_counts = np.count_nonzero(_as_matrix(parameter.data), axis=1)
        nnz = int(row_counts.sum())
        total += nnz * (value_bits + index_bits) + (row_counts.size + 1) * index_bits
    return total
