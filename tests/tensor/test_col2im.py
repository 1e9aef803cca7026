"""``col2im`` against a frozen copy of the column-layout scatter it replaced.

``reference_col2im_t`` is the scatter as it was written when the conv
routes handed it ``(K, N*L)`` columns: the dense route's transposed
``(N*L, K)`` product, the CSR route's ``t_matmul`` result as is, and
the pools' ``(C, kh*kw, N, oh, ow)`` windows.  The row-layout scatter
takes the same data as ``(N*L, K)`` rows and must return the same
bytes, C-contiguous, for every geometry: kernel 1-3, stride 1-2,
padding 0-2, 1 to 64 channels, 1x1 images and 1x1 outputs included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import col2im, conv_output_shape


def reference_col2im_t(cols_t, input_shape, kernel, stride, padding):
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols_t.dtype)
    cols6 = cols_t.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols6[:, i, j].transpose(1, 0, 2, 3)
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded


@st.composite
def geometries(draw):
    kernel = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    channels = draw(st.sampled_from([1, 3, 16, 64]))
    n = draw(st.integers(1, 3))
    h = draw(st.integers(max(1, kernel - 2 * padding), 7))
    w = draw(st.integers(max(1, kernel - 2 * padding), 7))
    seed = draw(st.integers(0, 2**16))
    return (n, channels, h, w), (kernel, kernel), (stride, stride), (padding, padding), seed


def out_pixels(shape, kernel, stride, padding):
    n, _, h, w = shape
    return (n, conv_output_shape(h, kernel[0], stride[0], padding[0]),
            conv_output_shape(w, kernel[1], stride[1], padding[1]))


def same(new, old):
    assert new.flags.c_contiguous
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == np.ascontiguousarray(old).tobytes()


@settings(max_examples=80, deadline=None)
@given(geometries())
def test_dense_route_rows(geometry):
    """The dense input gradient ``grad_rows @ W``: C-ordered ``(N*L, K)``."""
    shape, kernel, stride, padding, seed = geometry
    n, oh, ow = out_pixels(shape, kernel, stride, padding)
    k = shape[1] * kernel[0] * kernel[1]
    rng = np.random.default_rng(seed)
    grad_rows = rng.standard_normal((n * oh * ow, 5)).astype(np.float32)
    w_mat = rng.standard_normal((5, k)).astype(np.float32)
    rows = grad_rows @ w_mat
    same(col2im(rows, shape, kernel, stride, padding),
         reference_col2im_t(rows.T, shape, kernel, stride, padding))


@settings(max_examples=80, deadline=None)
@given(geometries())
def test_csr_route_rows(geometry):
    """The CSR input gradient: ``t_matmul``'s C-ordered ``(K, N*L)``, transposed."""
    shape, kernel, stride, padding, seed = geometry
    n, oh, ow = out_pixels(shape, kernel, stride, padding)
    k = shape[1] * kernel[0] * kernel[1]
    cols_t = np.random.default_rng(seed).standard_normal((k, n * oh * ow)).astype(np.float32)
    same(col2im(cols_t.T, shape, kernel, stride, padding),
         reference_col2im_t(cols_t, shape, kernel, stride, padding))


@settings(max_examples=80, deadline=None)
@given(geometries(), st.booleans())
def test_pool_window_rows(geometry, broadcast):
    """Pool backwards: ``(C, kh*kw, N, oh, ow)`` windows (or a broadcast of
    one value per window, as average pooling hands them) as rows."""
    shape, kernel, stride, _, seed = geometry
    padding = (0, 0)
    if shape[2] < kernel[0] or shape[3] < kernel[1]:
        shape = (shape[0], shape[1], max(shape[2], kernel[0]), max(shape[3], kernel[1]))
    n, oh, ow = out_pixels(shape, kernel, stride, padding)
    windows_shape = (shape[1], kernel[0] * kernel[1], n, oh, ow)
    rng = np.random.default_rng(seed)
    if broadcast:
        per_window = rng.standard_normal((shape[1], 1, n, oh, ow)).astype(np.float32)
        windows = np.broadcast_to(per_window, windows_shape)
    else:
        windows = rng.standard_normal(windows_shape).astype(np.float32)
    same(col2im(windows.transpose(2, 3, 4, 0, 1), shape, kernel, stride, padding),
         reference_col2im_t(windows, shape, kernel, stride, padding))
