"""Tap-slice average pooling against a frozen copy of the lowered one.

``reference_avg_pool2d`` is ``avg_pool2d`` as it ran every pool through
the lowering: ``mean`` over the ``(C, kh*kw, N, oh, ow)`` windows of
``im2col_t``, and ``col2im`` of the broadcast ``grad / size`` for the
backward.  Pools with ``kernel == stride`` and fewer than 8 taps now sum
strided tap slices instead; output and input gradient must keep every
byte, negative zeros included, for C-ordered, channels-last and
channel-major inputs and gradients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, avg_pool2d, col2im, conv_output_shape, im2col_t


def reference_avg_pool2d(x, grad, kernel):
    n, c, h, w = x.shape
    out_h = conv_output_shape(h, kernel[0], kernel[0], 0)
    out_w = conv_output_shape(w, kernel[1], kernel[1], 0)
    size = kernel[0] * kernel[1]
    windows = im2col_t(x, kernel, kernel, (0, 0)).reshape(c, size, n, out_h, out_w)
    out = np.ascontiguousarray(windows.mean(axis=1).transpose(1, 0, 2, 3))
    rows = np.broadcast_to((grad / size).transpose(0, 2, 3, 1)[..., None],
                           (n, out_h, out_w, c, size))
    return out, col2im(rows, x.shape, kernel, kernel, (0, 0))


def with_layout(array, layout):
    if layout == "nhwc":
        return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "cnhw":
        return np.ascontiguousarray(array.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return array


def with_zeros(rng, array):
    """``array`` with about a third of its entries set to ``-0.0`` or ``0.0``."""
    array = array.copy()
    array[rng.random(array.shape) < 0.2] = -0.0
    array[rng.random(array.shape) < 0.1] = 0.0
    return array


@st.composite
def pools(draw):
    kernel = draw(st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1), (2, 3), (3, 2)]))
    n = draw(st.integers(1, 3))
    c = draw(st.sampled_from([1, 3, 8, 16]))
    h = draw(st.integers(kernel[0], 9))
    w = draw(st.integers(kernel[1], 9))
    layouts = draw(st.tuples(*[st.sampled_from(["c", "nhwc", "cnhw"])] * 2))
    return kernel, (n, c, h, w), layouts, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(pools())
def test_same_bytes_as_the_lowered_pool(pool):
    kernel, shape, (x_layout, grad_layout), seed = pool
    rng = np.random.default_rng(seed)
    x_data = with_layout(with_zeros(rng, rng.standard_normal(shape).astype(np.float32)), x_layout)
    x = Tensor(x_data, requires_grad=True)
    out = avg_pool2d(x, kernel)
    grad = with_zeros(rng, rng.standard_normal(out.shape).astype(np.float32))
    grad = with_layout(grad, grad_layout)
    out.backward(grad)
    ref_out, ref_grad = reference_avg_pool2d(x_data, grad, kernel)
    assert out.data.flags.c_contiguous
    assert out.data.tobytes() == ref_out.tobytes()
    assert x.grad.tobytes() == ref_grad.tobytes()


def test_all_negative_zero_windows_pool_to_positive_zero():
    x = Tensor(np.full((2, 3, 4, 4), -0.0, dtype=np.float32), requires_grad=True)
    out = avg_pool2d(x, 2)
    out.backward(np.full(out.shape, -0.0, dtype=np.float32))
    assert not np.signbit(out.data).any()
    assert not np.signbit(x.grad).any()
