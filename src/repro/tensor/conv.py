"""The one patch lowering behind convolution and pooling.

:func:`im2col_t` lowers ``(N, C, H, W)`` patches to a ``(C*kh*kw,
N*out_h*out_w)`` column matrix and :func:`col2im` scatter-adds the
``(N*out_h*out_w, C*kh*kw)`` rows of a gradient back into an image.
Both conv routes in :func:`~repro.tensor.functional.masked_conv2d`
(dense BLAS and CSR) and both pooling ops here run on this single
lowering, so every convolution-shaped op shares one layout and one
backward scatter.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .tensor import Tensor


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_shape(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col_t(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]) -> np.ndarray:
    """Lower image patches to a ``(C*kh*kw, N*out_h*out_w)`` matrix.

    The strided view is ordered ``(c, kh, kw, n, oh, ow)``, so the single
    reshape copy lands in the layout a ``(F, K) @ (K, N*L)`` product
    consumes, and pooling windows sit on axis 1 of ``(C, kh*kw, N, L)``.
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

    # Strided view: (C, kh, kw, N, out_h, out_w)
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, n, out_h, out_w),
        strides=(s1, s2, s3, s0, s2 * sh, s3 * sw),
        writeable=False,
    )
    return view.reshape(c * kh * kw, n * out_h * out_w)


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


def avg_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over the spatial dimensions."""
    kernel, stride_p, windows = _pool_windows(x, kernel_size, stride)
    rows_shape, size = _rows_shape(windows.shape), windows.shape[1]
    out = x._make(_nchw(windows.mean(axis=1)), (x,), "avg_pool2d")

    def backward(grad: np.ndarray) -> None:
        grad_rows = np.broadcast_to((grad / size).transpose(0, 2, 3, 1)[..., None], rows_shape)
        x._accumulate(col2im(grad_rows, x.shape, kernel, stride_p, (0, 0)))

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
        x._accumulate(col2im(grad_rows, x.shape, kernel, stride_p, (0, 0)))

    out._backward = backward
    return out
