"""``im2col_t`` against a frozen copy of the strided lowering.

``reference_im2col_t`` pads into a zeroed buffer and reshapes the
``(C, kh, kw, N, out_h, out_w)`` strided view, which copies unless the
reshape can be a view.  ``im2col_t`` gathers small outputs through a
cached flat index instead; it must return the same bytes in the same
layout (strides included: BLAS bits depend on operand layout) for every
geometry and input memory layout, and keep every view the reshape gave.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import conv, conv_output_shape, im2col_t


def reference_im2col_t(x, kernel, stride, padding):
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)
    if ph or pw:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(c, kh, kw, n, out_h, out_w),
        strides=(s1, s2, s3, s0, s2 * sh, s3 * sw), writeable=False,
    )
    return view.reshape(c * kh * kw, n * out_h * out_w)


def with_layout(array, layout):
    """``array``'s values in C order, channels-last or channel-major memory."""
    if layout == "nhwc":
        return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "cnhw":
        return np.ascontiguousarray(array.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return array


def same(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.strides == old.strides
    assert new.tobytes() == old.tobytes()


def lower_both(x, kernel, stride, padding):
    geometry = (kernel, kernel), (stride, stride), (padding, padding)
    return im2col_t(x, *geometry), reference_im2col_t(x, *geometry)


@st.composite
def geometries(draw):
    kernel = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3))
    channels = draw(st.sampled_from([1, 3, 16, 64]))
    h = draw(st.integers(max(1, kernel - 2 * padding), 9))
    w = draw(st.integers(max(1, kernel - 2 * padding), 9))
    layout = draw(st.sampled_from(["c", "nhwc", "cnhw"]))
    seed = draw(st.integers(0, 2**16))
    return (n, channels, h, w), kernel, stride, padding, layout, seed


@settings(max_examples=200, deadline=None)
@given(geometries())
def test_same_bytes_and_layout_as_the_strided_lowering(geometry):
    shape, kernel, stride, padding, layout, seed = geometry
    x = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    same(*lower_both(with_layout(x, layout), kernel, stride, padding))


@pytest.mark.parametrize("n,channels,size", [(16, 16, 4), (16, 32, 4), (16, 32, 2), (16, 64, 2)])
def test_vgg_bench_shapes_are_gathered(n, channels, size, monkeypatch):
    """The 3x3 padded convs of the benchmarked VGG-16 at out_w 2 and 4
    take the gather, and still match the strided lowering."""
    monkeypatch.setattr(conv, "_GATHER_INDEX", {})
    x = np.random.default_rng(0).standard_normal((n, channels, size, size)).astype(np.float32)
    same(*lower_both(x, 3, 1, 1))
    (index,) = conv._GATHER_INDEX.values()
    assert index is not None and not index.flags.writeable


def test_views_stay_views(monkeypatch):
    """A 1x1 output lowers to a view of the padded input, strides
    ``(4, C*9*4)``; the gather must not turn it into a C-ordered copy."""
    monkeypatch.setattr(conv, "_GATHER_INDEX", {})
    x = np.random.default_rng(1).standard_normal((4, 64, 1, 1)).astype(np.float32)
    new, old = lower_both(x, 3, 1, 1)
    same(new, old)
    assert new.strides == (4, 2304)
    assert list(conv._GATHER_INDEX.values()) == [None]


def test_wide_outputs_keep_the_strided_copy(monkeypatch):
    monkeypatch.setattr(conv, "_GATHER_INDEX", {})
    x = np.random.default_rng(2).standard_normal((2, 8, 16, 16)).astype(np.float32)
    same(*lower_both(x, 3, 1, 1))
    assert conv._GATHER_INDEX == {}


def test_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(conv, "_GATHER_INDEX", {})
    monkeypatch.setattr(conv, "_GATHER_CACHE_SIZE", 3)
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        x = rng.standard_normal((n, 3, 4, 4)).astype(np.float32)
        same(*lower_both(x, 3, 1, 1))
    assert len(conv._GATHER_INDEX) == 3


def test_concurrent_first_calls_publish_one_index(monkeypatch):
    monkeypatch.setattr(conv, "_GATHER_INDEX", {})
    x = np.random.default_rng(4).standard_normal((8, 16, 4, 4)).astype(np.float32)
    expected = reference_im2col_t(x, (3, 3), (1, 1), (1, 1))
    barrier = threading.Barrier(4)
    results, indexes = [], []

    def lower():
        barrier.wait()
        results.append(im2col_t(x, (3, 3), (1, 1), (1, 1)))
        indexes.append(conv._gather_index((8, 16, 6, 6), (3, 3), (1, 1), (4, 4)))

    threads = [threading.Thread(target=lower) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        same(result, expected)
    (published,) = conv._GATHER_INDEX.values()
    assert all(index is published for index in indexes)
