"""The one patch lowering behind convolution and pooling.

:func:`im2col_t` lowers ``(N, C, H, W)`` patches to a ``(C*kh*kw,
N*out_h*out_w)`` column matrix and :func:`col2im` scatter-adds the
``(N*out_h*out_w, C*kh*kw)`` rows of a gradient back into an image.
Both conv routes in :func:`~repro.tensor.functional.masked_conv2d`
(dense BLAS and CSR) and the pooling ops here run on this single
lowering, so every convolution-shaped op shares one layout and one
backward scatter; only average pools whose windows tile the input sum
strided tap slices instead, with the same bits.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor

#: Widest output row :func:`im2col_t` gathers instead of copying strided:
#: at ``out_w <= 4`` a flat ``take`` beats NumPy's 6-D strided copy (its
#: inner loop is only ``out_w`` long), at 16x16 it is ~2x slower.
_GATHER_MAX_OUT_W = 4
#: Bound on the gather-index cache: one entry per lowered geometry.
_GATHER_CACHE_SIZE = 64
_GATHER_INDEX: Dict[tuple, Optional[np.ndarray]] = {}
_GATHER_LOCK = threading.Lock()


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_shape(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def _patch_view(x: np.ndarray, kernel, stride, out_hw) -> np.ndarray:
    """The patches of ``x`` as a strided ``(C, kh, kw, N, out_h, out_w)`` view."""
    n, c = x.shape[:2]
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(c, *kernel, n, *out_hw),
        strides=(s1, s2, s3, s0, s2 * stride[0], s3 * stride[1]),
        writeable=False,
    )


def _gather_index(shape, kernel, stride, out_hw):
    """Flat read-only index of the lowering of a C-ordered ``shape``, or
    ``None`` where the lowering's reshape is a view (e.g. 1x1 outputs).

    Entries are built from the lowering of ``arange`` itself and
    published once per geometry: the first one stored is never
    replaced, and once the cache is full new geometries are built per
    call instead of stored.
    """
    key = (shape, kernel, stride)
    if key in _GATHER_INDEX:
        return _GATHER_INDEX[key]
    view = _patch_view(np.arange(int(np.prod(shape))).reshape(shape), kernel, stride, out_hw)
    lowered = (view.shape[0] * kernel[0] * kernel[1], -1)
    try:
        view.reshape(lowered, copy=False)
        index = None
    except ValueError:
        index = view.reshape(lowered)
        index.flags.writeable = False
    with _GATHER_LOCK:
        if len(_GATHER_INDEX) < _GATHER_CACHE_SIZE:
            index = _GATHER_INDEX.setdefault(key, index)
    return index


def im2col_t(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]) -> np.ndarray:
    """Lower image patches to a ``(C*kh*kw, N*out_h*out_w)`` matrix.

    The strided view is ordered ``(c, kh, kw, n, oh, ow)``, so the single
    reshape copy lands in the layout a ``(F, K) @ (K, N*L)`` product
    consumes, and pooling windows sit on axis 1 of ``(C, kh*kw, N, L)``.
    Where that reshape has to copy a C-ordered input and output rows are
    at most ``_GATHER_MAX_OUT_W`` wide, the same C-ordered matrix is
    gathered through a cached flat index instead; wherever the reshape
    is a view it stays one, since BLAS bits depend on operand layout.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)
    if ph or pw:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded

    if out_w <= _GATHER_MAX_OUT_W and x.flags.c_contiguous:
        index = _gather_index(x.shape, kernel, stride, (out_h, out_w))
        if index is not None:
            return x.reshape(-1).take(index)
    return _patch_view(x, kernel, stride, (out_h, out_w)).reshape(c * kh * kw, n * out_h * out_w)


def col2im(
    rows: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col_t`: scatter-add ``(N*L, K)`` rows back.

    ``rows`` is the layout an input-gradient product comes out of: one
    row per output pixel in ``(n, oh, ow)`` order, its ``K`` entries in
    ``(c, kh, kw)`` order; any array in that element order (e.g. an
    ``(N, oh, ow, C, kh*kw)`` broadcast of pooling windows) is accepted.
    Overlapping windows accumulate, which makes this the input-gradient
    half of every op lowered through :func:`im2col_t`.  The adds run
    tap by tap in ``(i, j)`` order on an ``(N, H+2p, W+2p, C)``
    accumulator, so each pixel sums its taps in that order, and the
    result is a C-contiguous ``(N, C, H, W)`` array.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)

    padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=rows.dtype)
    rows6 = rows.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, i:i_end:sh, j:j_end:sw] += rows6[..., i, j]
    return np.ascontiguousarray(padded[:, ph:h + ph, pw:w + pw].transpose(0, 3, 1, 2))


def _pool_windows(x: Tensor, kernel_size, stride):
    """Normalised kernel and stride, and the pooling windows of ``x`` as
    ``(C, kh*kw, N, out_h, out_w)``: every op reduces over axis 1."""
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    n, c, h, w = x.shape
    out_h = conv_output_shape(h, kernel[0], stride[0], 0)
    out_w = conv_output_shape(w, kernel[1], stride[1], 0)
    cols_t = im2col_t(x.data, kernel, stride, (0, 0))
    return kernel, stride, cols_t.reshape(c, kernel[0] * kernel[1], n, out_h, out_w)


def _rows_shape(windows_shape):
    """``(N, oh, ow, C, kh*kw)``: pooling windows in :func:`col2im`'s row order."""
    c, size, n, out_h, out_w = windows_shape
    return n, out_h, out_w, c, size


def _nchw(pooled: np.ndarray) -> np.ndarray:
    """``(C, N, oh, ow)`` to a C-ordered ``(N, C, oh, ow)``: downstream
    reductions then sum in the same order as over any other activation."""
    return np.ascontiguousarray(pooled.transpose(1, 0, 2, 3))


def _tiled_avg_pool2d(x: Tensor, kernel) -> Tensor:
    """:func:`avg_pool2d` for ``kernel == stride`` on strided tap slices.

    Same bits as the lowering: the forward sums the taps in the order
    ``windows.mean`` added them, starting from its identity ``0.0``, and
    divides once; the backward writes ``grad / size + 0.0`` into each tap
    of a zeroed array, the ``0.0 + g`` :func:`col2im` makes.  Both
    ``+ 0.0`` turn ``-0.0`` into ``0.0``.
    """
    (kh, kw), (h, w) = kernel, x.shape[2:]
    out_h, out_w = h // kh, w // kw
    taps = [(Ellipsis, slice(i, i + kh * out_h, kh), slice(j, j + kw * out_w, kw))
            for i in range(kh) for j in range(kw)]
    size = len(taps)
    pooled = np.add(x.data[taps[0]], 0.0, order="C")
    for tap in taps[1:]:
        pooled += x.data[tap]
    pooled /= size
    out = x._make(pooled, (x,), "avg_pool2d")

    def backward(grad: np.ndarray) -> None:
        share = grad / size + 0.0
        grad_x = np.zeros(x.shape, dtype=share.dtype)
        for tap in taps:
            grad_x[tap] = share
        x._accumulate(grad_x, owned=True)

    out._backward = backward
    return out


def avg_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over the spatial dimensions."""
    kernel = _pair(kernel_size)
    # From 8 taps on, NumPy's pairwise sum orders a window's taps by its
    # memory layout, which the slices would not reproduce.
    if (stride is None or _pair(stride) == kernel) and kernel[0] * kernel[1] < 8:
        return _tiled_avg_pool2d(x, kernel)
    kernel, stride_p, windows = _pool_windows(x, kernel_size, stride)
    rows_shape, size = _rows_shape(windows.shape), windows.shape[1]
    out = x._make(_nchw(windows.mean(axis=1)), (x,), "avg_pool2d")

    def backward(grad: np.ndarray) -> None:
        grad_rows = np.broadcast_to((grad / size).transpose(0, 2, 3, 1)[..., None], rows_shape)
        x._accumulate(col2im(grad_rows, x.shape, kernel, stride_p, (0, 0)), owned=True)

    out._backward = backward
    return out


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Max pooling over the spatial dimensions (the first maximum in a
    window takes the gradient)."""
    kernel, stride_p, windows = _pool_windows(x, kernel_size, stride)
    rows_shape, argmax = _rows_shape(windows.shape), windows.argmax(axis=1)[:, None]
    out = x._make(_nchw(np.take_along_axis(windows, argmax, axis=1)[:, 0]), (x,), "max_pool2d")

    def backward(grad: np.ndarray) -> None:
        grad_rows = np.zeros(rows_shape, dtype=grad.dtype)
        np.put_along_axis(grad_rows, argmax.transpose(2, 3, 4, 0, 1),
                          grad.transpose(0, 2, 3, 1)[..., None], axis=4)
        x._accumulate(col2im(grad_rows, x.shape, kernel, stride_p, (0, 0)), owned=True)

    out._backward = backward
    return out
