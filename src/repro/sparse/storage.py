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

A frozen pattern also runs event-driven products
(:meth:`CSRPattern.spike_matmul`): fed rows of spikes, it reads only the
weight columns of inputs that fired, through a column index built once
per topology, and returns the bits :meth:`CSRPattern.matmul` returns.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import _sparsetools
from scipy.sparse._sputils import upcast_char


#: A product of fewer columns runs SciPy's one-column kernel once per
#: column: its multi-column kernel is up to 2x slower at 2-3 columns and
#: sums each column in the same order, so the bits are the same.
MATVECS_MIN_COLUMNS = 4

#: Below this many multiply-adds (``nnz x rows``) a spike product runs
#: :meth:`CSRPattern.matmul` without looking at its input: finding the
#: live columns costs ~10 us, which a smaller product cannot win back
#: unless every input is silent (see ``benchmarks/bench_kernels.py``).
EVENT_MIN_WORK = 1 << 17

#: The event-driven kernel runs while the live columns hold at most
#: this share of the non-zeros.  Gathering a live non-zero costs ~6 ns
#: whatever the row count, while a one-row CSR product costs ~0.8 ns
#: per non-zero, so past ~8% a one-row product is faster as it is.
EVENT_MAX_SHARE = 1 / 16

# Serializes the first build of a pattern's column index, so workers
# sharing a frozen pattern publish one index.
_COLUMN_INDEX_LOCK = threading.Lock()


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

    A frozen pattern whose values are all finite and whose rows list
    their columns in order can run :meth:`spike_matmul` event-driven; it
    builds a column index (``colptr``, row indices and a permutation into
    ``values``, all int32) on first use and reads the values through it.
    """

    __slots__ = ("shape", "orig_shape", "indices", "indptr", "flat_index", "nnz",
                 "values", "scales", "frozen", "_event_values", "_columns")

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
        self._event_values: Optional[np.ndarray] = None
        self._columns: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

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
        self._event_values = None
        self._columns = None
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

        Freezing also decides whether :meth:`spike_matmul` may skip the
        terms of silent inputs.  A skipped term is ``w * 0``, which adds
        nothing to a sum only when ``w`` is finite (``inf * 0`` is nan),
        and the column index sums each row's terms in column order, which
        is the pattern's own order only when every row lists its columns
        in order.
        """
        self.values.setflags(write=False)
        self.frozen = True
        steps = np.diff(self.indices)
        row_starts = self.indptr[1:-1]
        steps[row_starts[(row_starts > 0) & (row_starts < self.nnz)] - 1] = 0
        ordered = (steps >= 0).all()
        self._event_values = self.values if ordered and np.isfinite(self.values).all() else None
        return self

    def thaw(self) -> "CSRPattern":
        """Reverse :meth:`freeze`; the pattern is trainable again."""
        self.values.setflags(write=True)
        self.frozen = False
        self._event_values = None
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
    def _product(self, kernel: str, pointers: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, dense: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """One call into SciPy's compiled ``<kernel>_matvecs``, or one
        ``<kernel>_matvec`` per column below :data:`MATVECS_MIN_COLUMNS`.

        These are the calls ``csr_matrix @`` (``kernel="csr"``) and its
        ``.T @`` (``"csc"``: the same arrays, shape swapped) make for the
        same operands, so the bits are SciPy's.  ``pointers`` and
        ``indices`` are the compressed arrays the kernel walks; the
        result is a C-ordered ``(rows, columns)`` array either way.
        """
        columns = dense.shape[1]
        dtype = upcast_char(data.dtype.char, dense.dtype.char)
        if columns == 1:
            out = np.zeros((rows, 1), dtype=dtype)
            getattr(_sparsetools, kernel + "_matvec")(
                rows, cols, pointers, indices, data, dense.ravel(), out.ravel())
            return out
        if columns < MATVECS_MIN_COLUMNS:
            matvec = getattr(_sparsetools, kernel + "_matvec")
            out = np.zeros((columns, rows), dtype=dtype)
            for vector, result in zip(dense.T, out):
                matvec(rows, cols, pointers, indices, data, np.ascontiguousarray(vector), result)
            return np.ascontiguousarray(out.T)
        out = np.zeros((rows, columns), dtype=dtype)
        getattr(_sparsetools, kernel + "_matvecs")(
            rows, cols, columns, pointers, indices, data, dense.ravel(), out.ravel())
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
        out = self._product("csr", self.indptr, self.indices, data, dense, rows, cols)
        if self.scales is not None:
            out *= self.scales[:, None]
        return out

    def spike_matmul(self, data: np.ndarray, spikes: np.ndarray) -> Tuple[np.ndarray, bool]:
        """``(W @ spikes.T, event_driven)`` for rows of exact 0/1 values.

        ``spikes`` has shape ``(m, cols)``; the product is
        :meth:`matmul`'s ``(rows, m)``, bit for bit.  The event-driven
        kernel runs when the product has at least :data:`EVENT_MIN_WORK`
        multiply-adds, ``data`` is the values of a pattern :meth:`freeze`
        cleared for it, and the live columns (non-zero in some row) hold
        at most :data:`EVENT_MAX_SHARE` of the non-zeros; otherwise
        :meth:`matmul` runs and ``event_driven`` is false.
        """
        if self.nnz * len(spikes) >= EVENT_MIN_WORK and data is self._event_values:
            out = self._event_matmul(data, spikes, EVENT_MAX_SHARE)
            if out is not None:
                return out, True
        return self.matmul(data, spikes.T), False

    def _event_matmul(self, data: np.ndarray, spikes: np.ndarray,
                      max_share: float) -> Optional[np.ndarray]:
        """The event-driven ``W @ spikes.T``, or ``None`` when the live
        columns hold more than ``max_share`` of the non-zeros.

        One SciPy ``csc_matvec(s)`` call over only the live columns,
        reading ``data`` through the column index; with no live column
        the kernel is skipped.  Each output sums its remaining terms in
        the pattern's column order, and a skipped term is ``w * 0``,
        which leaves a float32 sum started at ``+0.0`` as it is for a
        finite ``w``.  ``w * 1`` rounds like ``w`` even fused, so the
        bits are :meth:`matmul`'s.
        """
        dense = spikes.T
        rows, cols = self.shape
        self._check_operands(data, dense, cols)
        live = np.flatnonzero(spikes.any(axis=0))
        colptr, row_index, order = self._column_index()
        starts = colptr[live]
        counts = colptr[live + 1] - starts
        live_nnz = int(counts.sum())
        if live_nnz > max_share * self.nnz:
            return None
        if live_nnz == 0:
            out = np.zeros((rows, len(spikes)), dtype=upcast_char(data.dtype.char, dense.dtype.char))
        else:
            pointers = np.zeros(live.size + 1, dtype=np.int32)
            np.cumsum(counts, out=pointers[1:])
            # Positions of the live columns' entries in the column index.
            at = np.repeat((starts - pointers[:-1]).astype(np.intp), counts)
            at += np.arange(live_nnz)
            out = self._product("csc", pointers, row_index.take(at),
                                data.take(order.take(at)), dense.take(live, axis=0),
                                rows, live.size)
        if self.scales is not None:
            out *= self.scales[:, None]
        return out

    def _column_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(colptr, row indices, value order)``: the pattern by column.

        A stable sort keeps each column's entries in row order.  Built on
        first use and published in one assignment under a lock, so
        concurrent first calls on a shared frozen pattern see one index.
        """
        if self._columns is None:
            with _COLUMN_INDEX_LOCK:
                if self._columns is None:
                    rows, cols = self.shape
                    order = np.argsort(self.indices, kind="stable").astype(np.int32)
                    row_of = np.repeat(np.arange(rows, dtype=np.int32), np.diff(self.indptr))
                    colptr = np.zeros(cols + 1, dtype=np.int32)
                    np.cumsum(np.bincount(self.indices, minlength=cols), out=colptr[1:])
                    self._columns = (colptr, row_of[order], order)
        return self._columns

    def t_matmul(self, data: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """``W^T @ dense``; ``dense`` is ``(rows, m)``, returns ``(cols, m)``."""
        rows, cols = self.shape
        self._check_operands(data, dense, rows)
        if self.scales is not None:
            dense = self.scales[:, None] * dense
        return self._product("csc", self.indptr, self.indices, data, dense, cols, rows)


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
