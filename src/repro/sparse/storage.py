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
gradient — each as one direct call into SciPy's compiled CSR/CSC
kernels, the calls ``csr_matrix @`` and ``csr_matrix.T @`` make, with
no SciPy matrix object in between.  The same pattern serves
packed artifacts at their stored value precision: f16 or int8 values
go straight to SciPy (which accumulates in float32), and int8 rows are
rescaled by an optional per-row ``scales`` array after the product.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse import _sparsetools
from scipy.sparse._sputils import upcast_char


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
    kernels run without any per-call re-gather.  Both products read
    ``values`` (or whatever ``data`` they are handed) in place and never
    write, copy or reallocate it.

    ``scales`` (``None`` unless set) is a per-row float32 multiplier
    applied to the product, ``W = diag(scales) @ Q``: packed int8
    values are served this way without dequantizing them.
    """

    __slots__ = ("shape", "orig_shape", "indices", "indptr", "flat_index", "nnz",
                 "values", "scales", "frozen")

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

        The persistent buffer is returned; the kernels take it as their
        ``data`` as it is, with no further copy.
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
        if self.values.dtype != flat.dtype:
            self.values = np.empty(self.nnz, dtype=flat.dtype)
        np.take(flat, self.flat_index, out=self.values)
        return self.values

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _product(self, kernel: str, data: np.ndarray, dense: np.ndarray,
                 rows: int, cols: int) -> np.ndarray:
        """One call into SciPy's compiled ``<kernel>_matvec(s)``.

        These are the calls ``csr_matrix @`` (``kernel="csr"``) and its
        ``.T @`` (``"csc"``: the same arrays, shape swapped) make for the
        same operands, so the bits are SciPy's.
        """
        columns = dense.shape[1]
        out = np.zeros((rows, columns), dtype=upcast_char(data.dtype.char, dense.dtype.char))
        if columns == 1:
            getattr(_sparsetools, kernel + "_matvec")(
                rows, cols, self.indptr, self.indices, data, dense.ravel(), out.ravel())
        else:
            getattr(_sparsetools, kernel + "_matvecs")(
                rows, cols, columns, self.indptr, self.indices, data,
                dense.ravel(), out.ravel())
        return out

    def _check_operands(self, data: np.ndarray, dense: np.ndarray, length: int) -> None:
        # The compiled kernels do no bounds check: a short value buffer or
        # operand would be read past its end instead of failing.
        if data.size != self.nnz:
            raise ValueError(
                f"values buffer has {data.size} entries, pattern has {self.nnz} non-zeros"
            )
        if dense.ndim != 2 or dense.shape[0] != length:
            raise ValueError(
                f"dimension mismatch: CSR pattern {self.shape} @ operand {dense.shape}"
            )

    def matmul(self, data: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """``W @ dense`` where ``W`` is this pattern with ``data`` values.

        ``dense`` has shape ``(cols, m)``; returns ``(rows, m)``.
        """
        rows, cols = self.shape
        self._check_operands(data, dense, cols)
        out = self._product("csr", data, dense, rows, cols)
        if self.scales is not None:
            out *= self.scales[:, None]
        return out

    def t_matmul(self, data: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """``W^T @ dense``; ``dense`` is ``(rows, m)``, returns ``(cols, m)``."""
        rows, cols = self.shape
        self._check_operands(data, dense, rows)
        if self.scales is not None:
            dense = self.scales[:, None] * dense
        return self._product("csc", data, dense, cols, rows)


def csr_bits(nnz: int, rows: int, value_bits: int = 32, index_bits: int = 32) -> int:
    """§III-D CSR bits of one ``rows``-row matrix: values, column indices, row pointers."""
    return nnz * (value_bits + index_bits) + (rows + 1) * index_bits


def model_csr_storage_bits(
    model, value_bits: int = 32, index_bits: int = 32
) -> int:
    """Exact CSR storage of every sparsifiable weight in a model.

    ``nnz`` values + ``nnz`` column indices + ``rows + 1`` row pointers
    per weight matrix (4-D filters counted as ``(F, C*kh*kw)``).  This
    is the measured counterpart of the §III-D analytic formula; tests
    verify the two agree.
    """
    from .engine import sparsifiable_parameters

    total = 0
    for _, parameter in sparsifiable_parameters(model):
        row_counts = np.count_nonzero(_as_matrix(parameter.data), axis=1)
        total += csr_bits(int(row_counts.sum()), row_counts.size, value_bits, index_bits)
    return total
