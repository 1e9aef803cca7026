"""Convolution/pooling kernels: values against a naive reference,
gradients against finite differences, and the one ``im2col_t``
lowering bit for bit against the historical einsum route."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    check_gradients,
    col2im,
    conv_output_shape,
    im2col_t,
    masked_conv2d,
    max_pool2d,
)


def naive_conv2d(x, w, b, stride, padding):
    """Direct-loop reference convolution."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    out_h = conv_output_shape(h, kh, stride, padding)
    out_w = conv_output_shape(wd, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, out_h, out_w), dtype=np.float64)
    for i in range(n):
        for j in range(f):
            for y in range(out_h):
                for z in range(out_w):
                    patch = xp[i, :, y * stride:y * stride + kh, z * stride:z * stride + kw]
                    out[i, j, y, z] = (patch * w[j]).sum()
            if b is not None:
                out[i, j] += b[j]
    return out.astype(np.float32)


# ----------------------------------------------------------------------
# Reference: the historical (N, K, L) im2col + einsum lowering, kept
# here only as a bit-identity oracle for the one im2col_t lowering.
# ----------------------------------------------------------------------
def reference_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw), writeable=False,
    )
    return view.reshape(n, c * kh * kw, out_h * out_w).copy()


def reference_col2im(cols, input_shape, kernel, stride, padding):
    n, c, h, w = input_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = conv_output_shape(h, kh, sh, ph)
    out_w = conv_output_shape(w, kw, sw, pw)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += cols6[:, :, i, j]
    return padded[:, :, ph:h + ph, pw:w + pw]


def reference_conv2d(x, w, b, grad, stride, padding):
    """Forward, weight gradient and input gradient of the einsum conv."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    pair = (stride, stride), (padding, padding)
    out_h = conv_output_shape(h, kh, stride, padding)
    out_w = conv_output_shape(wd, kw, stride, padding)
    cols = reference_im2col(x, (kh, kw), *pair)
    w_mat = w.reshape(f, -1)
    out = np.einsum("fk,nkl->nfl", w_mat, cols, optimize=True).reshape(n, f, out_h, out_w)
    out = out + b.reshape(1, f, 1, 1)
    grad_mat = grad.reshape(n, f, out_h * out_w)
    grad_w = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True).reshape(w.shape)
    grad_cols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
    grad_x = reference_col2im(grad_cols, x.shape, (kh, kw), *pair)
    return out, grad_w, grad_x


def reference_pool(x, grad, kernel, stride, kind):
    """Forward and input gradient of the historical im2col pooling."""
    n, c, h, w = x.shape
    out_h = conv_output_shape(h, kernel, stride, 0)
    out_w = conv_output_shape(w, kernel, stride, 0)
    k2, length = kernel * kernel, out_h * out_w
    geometry = ((kernel, kernel), (stride, stride), (0, 0))
    cols = reference_im2col(x, *geometry).reshape(n, c, k2, length)
    grad4 = grad.reshape(n, c, 1, length)
    if kind == "avg":
        out = cols.mean(axis=2)
        grad_cols = np.repeat(grad4 / k2, k2, axis=2)
    else:
        argmax = cols.argmax(axis=2)
        out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
        grad_cols = np.zeros((n, c, k2, length), dtype=grad.dtype)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], grad4, axis=2)
    grad_x = reference_col2im(grad_cols.reshape(n, c * k2, length), x.shape, *geometry)
    return out.reshape(n, c, out_h, out_w), grad_x


#: Distinct (in_channels, filters, spatial) conv shapes of VGG-16 at
#: width 0.125 on 16x16 inputs, the benchmarked training workload.
VGG16_BENCH_CONVS = [
    (3, 8, 16), (8, 8, 16), (8, 16, 8), (16, 16, 8), (16, 32, 4),
    (32, 32, 4), (32, 64, 2), (64, 64, 2), (64, 64, 1),
]
#: Each shape at stride 1 and 2, padding 0 and 1, where the 3x3 kernel fits.
CONV_CASES = [
    (channels, filters, size, stride, padding)
    for channels, filters, size in VGG16_BENCH_CONVS
    for stride in (1, 2)
    for padding in (0, 1)
    if size + 2 * padding >= 3
]


class TestLoweringBitIdentity:
    @pytest.mark.parametrize("channels,filters,size,stride,padding", CONV_CASES)
    def test_conv_matches_einsum_route(self, channels, filters, size, stride, padding):
        rng = np.random.default_rng(channels * 100 + size)
        x_data = rng.standard_normal((16, channels, size, size)).astype(np.float32)
        w_data = (rng.standard_normal((filters, channels, 3, 3)) * 0.1).astype(np.float32)
        b_data = rng.standard_normal(filters).astype(np.float32)
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = masked_conv2d(x, w, b, stride=stride, padding=padding, state=None)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        ref_out, ref_gw, ref_gx = reference_conv2d(x_data, w_data, b_data, grad, stride, padding)
        assert np.array_equal(w.grad, ref_gw)
        assert np.array_equal(x.grad, ref_gx)
        if out.shape[2:] == (1, 1):
            # The historical forward multiplied a C-ordered (N*L, K) copy
            # of the lowering by W^T; the one lowering passes the
            # transposed view of cols_t instead.  With a single output
            # pixel (N*L = batch) OpenBLAS may sum the two in different
            # orders, so here the forward agrees to float32 rounding only.
            tol = 100 * np.finfo(np.float32).eps
            np.testing.assert_allclose(out.data, ref_out, rtol=tol, atol=tol)
        else:
            assert np.array_equal(out.data, ref_out)
            # Batch norm reduces in memory order: the output layout must
            # match too, or its statistics move in the last bits.
            assert np.array_equal(out.data.mean(axis=(0, 2, 3)), ref_out.mean(axis=(0, 2, 3)))

    @pytest.mark.parametrize("spikes", [False, True])
    @pytest.mark.parametrize("kind,pool", [("avg", avg_pool2d), ("max", max_pool2d)])
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (4, 4), (3, 2), (3, 1)])
    def test_pool_matches_im2col_route(self, kind, pool, kernel, stride, spikes):
        # Binary spike maps tie inside most windows: max pooling must
        # pick the same (first in kh, kw order) winner as before.
        rng = np.random.default_rng(kernel * 10 + stride)
        x_data = rng.standard_normal((16, 8, 16, 16)).astype(np.float32)
        if spikes:
            x_data = (x_data > 0.5).astype(np.float32)
        x = Tensor(x_data, requires_grad=True)
        out = pool(x, kernel, stride=stride)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(grad)
        ref_out, ref_gx = reference_pool(x_data, grad, kernel, stride, kind)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(x.grad, ref_gx)


class TestConvForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = masked_conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                            padding=padding, state=None)
        expected = naive_conv2d(x, w, b, stride, padding)
        assert np.allclose(out.data, expected, atol=1e-4)

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = masked_conv2d(Tensor(x), Tensor(w), None, padding=1, state=None)
        expected = naive_conv2d(x, w, None, 1, 1)
        assert np.allclose(out.data, expected, atol=1e-4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((3, 5, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            masked_conv2d(x, w, None, state=None)

    def test_output_shape_helper(self):
        assert conv_output_shape(32, 3, 1, 1) == 32
        assert conv_output_shape(32, 3, 2, 1) == 16
        assert conv_output_shape(5, 5, 1, 0) == 1


class TestIm2ColT:
    def test_roundtrip_identity_for_unit_stride_kernel1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        cols_t = im2col_t(x, (1, 1), (1, 1), (0, 0))
        back = col2im(cols_t.T, x.shape, (1, 1), (1, 1), (0, 0))
        assert np.allclose(back, x)

    def test_col2im_t_counts_overlaps(self):
        # With a 2x2 kernel at stride 1, interior pixels appear in 4 patches.
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols_t = im2col_t(x, (2, 2), (1, 1), (0, 0))
        back = col2im(cols_t.T, x.shape, (2, 2), (1, 1), (0, 0))
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0
        assert back[0, 0, 0, 1] == 2.0

    def test_im2col_t_shape(self):
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        cols_t = im2col_t(x, (3, 3), (2, 2), (1, 1))
        assert cols_t.shape == (27, 2 * 16)


class TestConvGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_gradcheck(self, stride, padding):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32) * 0.1, requires_grad=True)
        check_gradients(
            lambda: (masked_conv2d(x, w, b, stride=stride, padding=padding,
                                   state=None) ** 2).sum(),
            [x, w, b],
        )


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (avg_pool2d(x, 2) ** 2).sum(), [x])

    def test_max_pool_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)).astype(np.float32), requires_grad=True)
        check_gradients(lambda: (max_pool2d(x, 2) ** 2).sum(), [x])

    def test_pool_with_stride(self):
        x = Tensor(np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5))
        out = avg_pool2d(x, 3, stride=2)
        assert out.shape == (1, 1, 2, 2)
