"""Building-block oracle: the shared layer, init and edit bodies against
frozen copies of the per-class code they replaced.

The ``Ref*`` classes and ``ref_*`` functions below are copies of
``Linear``/``Conv2d`` (weight and bias draws, ``compact``),
``BatchNorm1d``/``BatchNorm2d`` (forward, ``compact``),
``AvgPool2d``/``MaxPool2d``, the four initializers, the three
``MaskedParameter`` topology edits and the two ``SparsityManager`` mask
initializers as each was written before they shared one body.  Forward
outputs (train and eval mode), input/weight/bias gradients, running
statistics, masks, weights, returned indices and the manager's RNG state
must agree bit for bit, except batch norm's.  Batch norm is one
closed-form autograd node that rounds unlike the composed ops of
``RefBatchNorm*``: its outputs, running statistics and three gradients
are held within 1e-5 of those copies and of a float64 evaluation, and
its bytes must not depend on the input's or the gradient's memory
layout, nor on the BLAS thread count.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.nn import init
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Linear,
    MaxPool2d,
    Sequential,
)
from repro.nn.module import Module, Parameter
from repro.sparse.engine import SparsityManager, _kept_count
from repro.tensor import Tensor, avg_pool2d, masked_conv2d, masked_linear, max_pool2d

pytestmark = pytest.mark.smoke

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


# ----------------------------------------------------------------------
# Reference copies
# ----------------------------------------------------------------------
def ref_fan_in_out(shape):
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    f, c, kh, kw = shape
    receptive = kh * kw
    return c * receptive, f * receptive


def ref_kaiming_uniform(shape, rng, gain=math.sqrt(2.0)):
    if init._SKIP_DEPTH > 0:
        return np.zeros(shape, dtype=np.float32)
    fan_in, _ = ref_fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def ref_kaiming_normal(shape, rng, gain=math.sqrt(2.0)):
    if init._SKIP_DEPTH > 0:
        return np.zeros(shape, dtype=np.float32)
    fan_in, _ = ref_fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


def ref_xavier_uniform(shape, rng):
    if init._SKIP_DEPTH > 0:
        return np.zeros(shape, dtype=np.float32)
    fan_in, fan_out = ref_fan_in_out(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def ref_uniform_bias(shape, weight_shape, rng):
    if init._SKIP_DEPTH > 0:
        return np.zeros(shape, dtype=np.float32)
    fan_in, _ = ref_fan_in_out(weight_shape)
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def ref_keep_index(keep, bound, what):
    index = np.asarray(keep, dtype=np.int64).reshape(-1)
    if index.size == 0:
        raise ValueError(f"compact() must keep at least one {what}")
    if index.min() < 0 or index.max() >= bound:
        raise ValueError(f"{what} keep indices out of range [0, {bound})")
    if np.any(np.diff(index) <= 0):
        raise ValueError(f"{what} keep indices must be sorted and unique")
    return index


class RefLinear(Module):
    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(ref_kaiming_uniform((out_features, in_features), rng))
        if bias:
            self.bias = Parameter(ref_uniform_bias((out_features,), self.weight.shape, rng))
        else:
            self.bias = None
        self.weight_state = None

    def forward(self, x):
        return masked_linear(x, self.weight, self.bias, self.weight_state)

    def compact(self, keep_out=None, keep_in=None):
        weight = self.weight.data
        if keep_out is not None:
            keep_out = ref_keep_index(keep_out, self.out_features, "output feature")
            weight = weight[keep_out]
            if self.bias is not None:
                self.bias = Parameter(self.bias.data[keep_out].copy())
            self.out_features = int(keep_out.size)
        if keep_in is not None:
            keep_in = ref_keep_index(keep_in, self.in_features, "input feature")
            weight = weight[:, keep_in]
            self.in_features = int(keep_in.size)
        self.weight = Parameter(np.ascontiguousarray(weight))
        self.weight_state = None
        return self


class RefConv2d(Module):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 bias=True, rng=None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(ref_kaiming_uniform(shape, rng))
        if bias:
            self.bias = Parameter(ref_uniform_bias((out_channels,), shape, rng))
        else:
            self.bias = None
        self.weight_state = None

    def forward(self, x):
        return masked_conv2d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, state=self.weight_state,
        )

    def compact(self, keep_out=None, keep_in=None):
        weight = self.weight.data
        if keep_out is not None:
            keep_out = ref_keep_index(keep_out, self.out_channels, "filter")
            weight = weight[keep_out]
            if self.bias is not None:
                self.bias = Parameter(self.bias.data[keep_out].copy())
            self.out_channels = int(keep_out.size)
        if keep_in is not None:
            keep_in = ref_keep_index(keep_in, self.in_channels, "input channel")
            weight = weight[:, keep_in]
            self.in_channels = int(keep_in.size)
        self.weight = Parameter(np.ascontiguousarray(weight))
        self.weight_state = None
        return self


def ref_compact_batchnorm(layer, keep):
    keep = ref_keep_index(keep, layer.num_features, "channel")
    layer.weight = Parameter(layer.weight.data[keep].copy())
    layer.bias = Parameter(layer.bias.data[keep].copy())
    layer.update_buffer("running_mean", layer.running_mean[keep].copy())
    layer.update_buffer("running_var", layer.running_var[keep].copy())
    layer.num_features = int(keep.size)


class RefBatchNorm2d(Module):
    def __init__(self, num_features, eps=1e-5, momentum=0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects (N, C, H, W) input")
        axes = (0, 2, 3)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            with_momentum = self.momentum
            new_mean = (1 - with_momentum) * self.running_mean + with_momentum * mean.data.reshape(-1)
            new_var = (1 - with_momentum) * self.running_var + with_momentum * var.data.reshape(-1)
            self.update_buffer("running_mean", new_mean.astype(np.float32))
            self.update_buffer("running_var", new_var.astype(np.float32))
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        return x_hat * scale + shift

    def compact(self, keep):
        ref_compact_batchnorm(self, keep)
        return self


class RefBatchNorm1d(Module):
    def __init__(self, num_features, eps=1e-5, momentum=0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x):
        if x.ndim != 2:
            raise ValueError("BatchNorm1d expects (N, F) input")
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            m = self.momentum
            self.update_buffer(
                "running_mean",
                ((1 - m) * self.running_mean + m * mean.data.reshape(-1)).astype(np.float32),
            )
            self.update_buffer(
                "running_var",
                ((1 - m) * self.running_var + m * var.data.reshape(-1)).astype(np.float32),
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1))
            var = Tensor(self.running_var.reshape(1, -1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        return x_hat * self.weight.reshape(1, -1) + self.bias.reshape(1, -1)

    def compact(self, keep):
        ref_compact_batchnorm(self, keep)
        return self


class RefAvgPool2d(Module):
    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x):
        return avg_pool2d(x, self.kernel_size, self.stride)


class RefMaxPool2d(Module):
    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x):
        return max_pool2d(x, self.kernel_size, self.stride)


def ref_drop_by_score(state, count, scores):
    state._require_thawed("a topology edit")
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    mask_flat = state.mask.reshape(-1)
    weight_flat = state.parameter.data.reshape(-1)
    active = np.flatnonzero(mask_flat)
    count = min(count, active.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    score_flat = np.abs(scores.reshape(-1)[active])
    chosen = active[np.argpartition(score_flat, count - 1)[:count]]
    mask_flat[chosen] = 0.0
    weight_flat[chosen] = 0.0
    state.touch()
    return chosen


def ref_grow_by_score(state, count, scores):
    state._require_thawed("a topology edit")
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    mask_flat = state.mask.reshape(-1)
    weight_flat = state.parameter.data.reshape(-1)
    inactive = np.flatnonzero(mask_flat == 0.0)
    count = min(count, inactive.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    score_flat = np.abs(scores.reshape(-1)[inactive])
    chosen = inactive[np.argpartition(score_flat, score_flat.size - count)[-count:]]
    mask_flat[chosen] = 1.0
    weight_flat[chosen] = 0.0
    state.touch()
    return chosen


def ref_grow_random(state, count, rng):
    state._require_thawed("a topology edit")
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    mask_flat = state.mask.reshape(-1)
    weight_flat = state.parameter.data.reshape(-1)
    inactive = np.flatnonzero(mask_flat == 0.0)
    count = min(count, inactive.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    chosen = rng.choice(inactive, size=count, replace=False)
    mask_flat[chosen] = 1.0
    weight_flat[chosen] = 0.0
    state.touch()
    return chosen


def ref_init_random(manager, densities):
    for name, state in manager.states.items():
        density = densities[name]
        size = state.size
        keep = _kept_count(name, density, size)
        mask = np.zeros(size, dtype=np.float32)
        active = manager.rng.choice(size, size=keep, replace=False)
        mask[active] = 1.0
        state.set_mask(mask.reshape(state.shape))
        state.density_target = density
    manager.apply_masks()


def ref_init_from_magnitude(manager, densities):
    for name, state in manager.states.items():
        density = densities[name]
        size = state.size
        keep = _kept_count(name, density, size)
        flat = np.abs(state.parameter.data.reshape(-1))
        threshold_index = size - keep
        order = np.argpartition(flat, threshold_index)[threshold_index:]
        mask = np.zeros(size, dtype=np.float32)
        mask[order] = 1.0
        state.set_mask(mask.reshape(state.shape))
        state.density_target = density
    manager.apply_masks()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def run_both(lib, ref, x, seed):
    """Forward ``x`` through both layers, backward one random upstream
    gradient, and compare outputs, input gradients and parameter
    gradients."""
    xs = [Tensor(x.copy(), requires_grad=True) for _ in range(2)]
    outs = [layer(xi) for layer, xi in zip((lib, ref), xs)]
    same(outs[0].data, outs[1].data)
    upstream = np.random.default_rng(seed).standard_normal(outs[0].shape).astype(np.float32)
    for out in outs:
        out.backward(upstream)
    same(xs[0].grad, xs[1].grad)
    lib_params = dict(lib.named_parameters())
    ref_params = dict(ref.named_parameters())
    assert lib_params.keys() == ref_params.keys()
    for name in lib_params:
        same(lib_params[name].data, ref_params[name].data)
        same(lib_params[name].grad, ref_params[name].grad)
        lib_params[name].zero_grad()
        ref_params[name].zero_grad()
    return outs[0].data


def raised(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


# ----------------------------------------------------------------------
# Initializers and masked layers
# ----------------------------------------------------------------------
INIT_CASES = [
    (init.kaiming_uniform, ref_kaiming_uniform, (7, 5)),
    (init.kaiming_uniform, ref_kaiming_uniform, (4, 3, 3, 3)),
    (init.kaiming_normal, ref_kaiming_normal, (6, 9)),
    (init.kaiming_normal, ref_kaiming_normal, (2, 5, 1, 1)),
    (init.xavier_uniform, ref_xavier_uniform, (8, 3)),
    (init.xavier_uniform, ref_xavier_uniform, (3, 2, 5, 5)),
]


@pytest.mark.parametrize("fn,ref,shape", INIT_CASES)
def test_initializer_draws(fn, ref, shape):
    lib_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2):
        same(fn(shape, rng=lib_rng), ref(shape, ref_rng))
    same(init.uniform_bias(shape[:1], shape, rng=lib_rng),
         ref_uniform_bias(shape[:1], shape, ref_rng))
    assert lib_rng.bit_generator.state == ref_rng.bit_generator.state


def test_skip_init_draws_nothing_and_checks_no_shape():
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with init.skip_init():
        for fn in (init.kaiming_uniform, init.kaiming_normal, init.xavier_uniform):
            same(fn((3,), rng=rng), np.zeros(3, dtype=np.float32))
        same(init.uniform_bias((2,), (2,), rng=rng), np.zeros(2, dtype=np.float32))
    assert rng.bit_generator.state == before


def make_linear_pair(bias, seed=3):
    return (Linear(9, 6, bias=bias, rng=np.random.default_rng(seed)),
            RefLinear(9, 6, bias=bias, rng=np.random.default_rng(seed)))


def make_conv_pair(bias, seed=4):
    kwargs = dict(stride=1, padding=1, bias=bias)
    return (Conv2d(3, 5, 3, rng=np.random.default_rng(seed), **kwargs),
            RefConv2d(3, 5, 3, rng=np.random.default_rng(seed), **kwargs))


@pytest.mark.parametrize("bias", [True, False])
def test_linear_forward_backward_and_compact(bias):
    lib, ref = make_linear_pair(bias)
    x = np.random.default_rng(0).standard_normal((4, 9)).astype(np.float32)
    run_both(lib, ref, x, seed=1)
    for layer in (lib, ref):
        layer.compact(keep_out=[0, 2, 5], keep_in=[1, 2, 4, 6, 8])
    assert (lib.in_features, lib.out_features) == (ref.in_features, ref.out_features) == (5, 3)
    assert lib.weight_state is None
    run_both(lib, ref, x[:, [1, 2, 4, 6, 8]], seed=2)
    for layer in (lib, ref):
        layer.compact(keep_in=[0, 3])
    assert (lib.in_features, lib.out_features) == (ref.in_features, ref.out_features) == (2, 3)
    run_both(lib, ref, x[:, [1, 6]], seed=3)


@pytest.mark.parametrize("bias", [True, False])
def test_conv_forward_backward_and_compact(bias):
    lib, ref = make_conv_pair(bias)
    x = np.random.default_rng(0).standard_normal((2, 3, 6, 6)).astype(np.float32)
    run_both(lib, ref, x, seed=1)
    for layer in (lib, ref):
        layer.compact(keep_out=[1, 3, 4], keep_in=[0, 2])
    assert (lib.in_channels, lib.out_channels) == (ref.in_channels, ref.out_channels) == (2, 3)
    run_both(lib, ref, x[:, [0, 2]], seed=2)
    for layer in (lib, ref):
        layer.compact(keep_out=[2])
    assert (lib.in_channels, lib.out_channels) == (ref.in_channels, ref.out_channels) == (2, 1)
    run_both(lib, ref, x[:, [0, 2]], seed=3)


@pytest.mark.parametrize("make_pair", [make_linear_pair, make_conv_pair])
@pytest.mark.parametrize("keep_out,keep_in", [
    ([], None), ([-1], None), ([0, 99], None), ([2, 1], None), ([1, 1], None),
    (None, []), (None, [7, 2]), (None, [0, 40]),
])
def test_compact_errors(make_pair, keep_out, keep_in):
    lib, ref = make_pair(True)
    assert raised(lambda: lib.compact(keep_out, keep_in)) == raised(
        lambda: ref.compact(keep_out, keep_in)
    )


# ----------------------------------------------------------------------
# Batch norm
# ----------------------------------------------------------------------
def make_bn_pair(lib_cls, ref_cls, features, seed):
    lib, ref = lib_cls(features, momentum=0.3), ref_cls(features, momentum=0.3)
    rng = np.random.default_rng(seed)
    weight = rng.uniform(0.5, 1.5, features).astype(np.float32)
    bias = rng.standard_normal(features).astype(np.float32)
    for layer in (lib, ref):
        layer.weight.data = weight.copy()
        layer.bias.data = bias.copy()
    return lib, ref


def close(got, want):
    """``got`` within 1e-5 of the largest magnitude of ``want`` (or of 1):
    the closed-form node and the composed ops round differently."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float32 and got.shape == want.shape
    error = np.abs(got.astype(np.float64) - want).max(initial=0.0)
    assert error <= 1e-5 * np.abs(want).max(initial=1.0), error


def bn_float64(layer, x, upstream):
    """``layer``'s batch norm evaluated in float64 from its parameters and
    (evaluation mode) running statistics: the output, the input, weight
    and bias gradients, and the running statistics after the step."""
    axes = (0,) + tuple(range(2, x.ndim))
    view = (1, -1) + (1,) * (x.ndim - 2)
    x, g = x.astype(np.float64), upstream.astype(np.float64)
    weight = layer.weight.data.astype(np.float64)
    running = (layer.running_mean.astype(np.float64), layer.running_var.astype(np.float64))
    if layer.training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        m = layer.momentum
        running = ((1 - m) * running[0] + m * mean, (1 - m) * running[1] + m * var)
    else:
        mean, var = running
    std = np.sqrt(var + layer.eps).reshape(view)
    x_hat = (x - mean.reshape(view)) / std
    out = x_hat * weight.reshape(view) + layer.bias.data.astype(np.float64).reshape(view)
    grad_x = g
    if layer.training:
        grad_x = g - g.mean(axis=axes, keepdims=True) - x_hat * (g * x_hat).mean(axis=axes, keepdims=True)
    grad_x = grad_x * weight.reshape(view) / std
    return out, grad_x, (g * x_hat).sum(axis=axes), g.sum(axis=axes), running


def check_running_stats(lib, ref):
    close(lib.running_mean, ref.running_mean)
    close(lib.running_var, ref.running_var)


def run_bn(lib, ref, x, seed):
    """:func:`run_both` for batch norm, to rounding: the output, the three
    gradients and the running statistics agree with the composed-op
    ``ref`` and with a float64 evaluation."""
    upstream = np.random.default_rng(seed).standard_normal(x.shape).astype(np.float32)
    out64, grad_x64, grad_w64, grad_b64, running64 = bn_float64(lib, x, upstream)
    xs = [Tensor(x.copy(), requires_grad=True) for _ in range(2)]
    outs = [layer(xi) for layer, xi in zip((lib, ref), xs)]
    for out in outs:
        out.backward(upstream)
    for want in (outs[1].data, out64):
        close(outs[0].data, want)
    for want in (xs[1].grad, grad_x64):
        close(xs[0].grad, want)
    for want in (ref.weight.grad, grad_w64):
        close(lib.weight.grad, want)
    for want in (ref.bias.grad, grad_b64):
        close(lib.bias.grad, want)
    for got, want in zip((lib.running_mean, lib.running_var), running64):
        close(got, want)
    check_running_stats(lib, ref)
    for layer in (lib, ref):
        layer.zero_grad()


BN_CASES = [
    (BatchNorm1d, RefBatchNorm1d, (8, 5)),
    (BatchNorm2d, RefBatchNorm2d, (4, 5, 3, 3)),
    (BatchNorm2d, RefBatchNorm2d, (16, 8, 16, 16)),
    (BatchNorm2d, RefBatchNorm2d, (16, 64, 2, 2)),
    (BatchNorm1d, RefBatchNorm1d, (16, 300)),
]


@pytest.mark.parametrize("lib_cls,ref_cls,shape", BN_CASES)
def test_batchnorm_train_eval_and_compact(lib_cls, ref_cls, shape):
    lib, ref = make_bn_pair(lib_cls, ref_cls, shape[1], seed=7)
    rng = np.random.default_rng(8)
    for step in range(3):
        x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(np.float32)
        run_bn(lib, ref, x, seed=step)
    for layer in (lib, ref):
        layer.eval()
    run_bn(lib, ref, x, seed=10)

    keep = [0, 2, 3]
    for layer in (lib, ref):
        layer.compact(keep)
    assert lib.num_features == ref.num_features == 3
    check_running_stats(lib, ref)
    run_bn(lib, ref, x[:, keep], seed=11)
    for layer in (lib, ref):
        layer.train()
    run_bn(lib, ref, x[:, keep], seed=12)
    assert raised(lambda: lib.compact([5])) == raised(lambda: ref.compact([5]))


def with_layout(array, layout):
    """``array``'s values in C order, channels-last or channel-major memory."""
    if layout == "nhwc":
        return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "cnhw":
        return np.ascontiguousarray(array.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return array.copy()


def bn_bytes(x, upstream, training):
    """Bytes of one batch-norm step: output, gradients, running statistics."""
    layer, _ = make_bn_pair(BatchNorm2d, RefBatchNorm2d, x.shape[1], seed=3)
    layer.train(training)
    xt = Tensor(x, requires_grad=True)
    out = layer(xt)
    out.backward(upstream)
    arrays = (out.data, xt.grad, layer.weight.grad, layer.bias.grad,
              layer.running_mean, layer.running_var)
    return [np.asarray(array).tobytes() for array in arrays]


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_bytes_do_not_depend_on_memory_layout(training):
    # Conv outputs reach batch norm channels-last (dense route) or
    # channel-major (CSR route), and upstream gradients in either layout.
    shape = (16, 16, 16, 16)
    rng = np.random.default_rng(4)
    x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(np.float32)
    upstream = rng.standard_normal(shape).astype(np.float32)
    expected = bn_bytes(x, upstream, training)
    for x_layout in ("c", "nhwc", "cnhw"):
        for grad_layout in ("c", "nhwc", "cnhw"):
            got = bn_bytes(with_layout(x, x_layout), with_layout(upstream, grad_layout), training)
            assert got == expected, (x_layout, grad_layout)


_BN_DIGEST_SNIPPET = """
import hashlib, sys
import numpy as np
from repro.nn import BatchNorm1d, BatchNorm2d
from repro.tensor import Tensor
digest = hashlib.sha256()
rng = np.random.default_rng(0)
for layer, shape in ((BatchNorm2d(4), (32, 4, 64, 64)), (BatchNorm2d(64), (8, 64, 8, 8)),
                     (BatchNorm1d(300), (64, 300))):
    for training in (True, False):
        layer.train(training)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        out = layer(x)
        out.backward(rng.standard_normal(shape).astype(np.float32))
        for array in (out.data, x.grad, layer.weight.grad, layer.bias.grad,
                      layer.running_mean, layer.running_var):
            digest.update(np.asarray(array).tobytes())
        layer.zero_grad()
print(digest.hexdigest())
"""


def test_batchnorm_bytes_do_not_depend_on_blas_threads():
    # Sums through BLAS change bytes with the thread count (OpenBLAS
    # splits ``ones @ rows`` at 131072 x 4 over two threads); batch
    # norm's reductions must not, or workers with their own thread
    # budgets would train different bits.
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", _BN_DIGEST_SNIPPET],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]


def test_batchnorm_input_with_a_second_consumer():
    lib, ref = make_bn_pair(BatchNorm2d, RefBatchNorm2d, 8, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((16, 8, 16, 16)).astype(np.float32)
    coef = rng.standard_normal(x.shape).astype(np.float32)
    upstream = rng.standard_normal(x.shape).astype(np.float32)
    xs = [Tensor(x.copy(), requires_grad=True) for _ in range(2)]
    outs = [xi * Tensor(coef) + layer(xi) for layer, xi in zip((lib, ref), xs)]
    close(outs[0].data, outs[1].data)
    for out in outs:
        out.backward(upstream)
    close(xs[0].grad, xs[1].grad)
    close(lib.weight.grad, ref.weight.grad)
    close(lib.bias.grad, ref.bias.grad)


@pytest.mark.parametrize("lib_cls,ref_cls,shape", BN_CASES)
def test_batchnorm_layout_errors(lib_cls, ref_cls, shape):
    lib, ref = lib_cls(shape[1]), ref_cls(shape[1])
    wrong = Tensor(np.zeros((2, shape[1], 1), dtype=np.float32))
    assert raised(lambda: lib(wrong)) == raised(lambda: ref(wrong))


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lib_cls,ref_cls", [(AvgPool2d, RefAvgPool2d), (MaxPool2d, RefMaxPool2d)])
@pytest.mark.parametrize("kernel,stride", [(2, None), (2, 1), (3, 2)])
def test_pools(lib_cls, ref_cls, kernel, stride):
    lib, ref = lib_cls(kernel, stride), ref_cls(kernel, stride)
    rng = np.random.default_rng(kernel * 10 + (stride or 0))
    x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    run_both(lib, ref, x, seed=1)
    ties = rng.integers(0, 3, (2, 3, 7, 7)).astype(np.float32)
    run_both(lib, ref, ties, seed=2)


# ----------------------------------------------------------------------
# Topology edits and mask initialization
# ----------------------------------------------------------------------
def make_manager(seed=0):
    model = Sequential(
        Linear(12, 10, rng=np.random.default_rng(seed)),
        Conv2d(3, 4, 3, bias=False, rng=np.random.default_rng(seed + 1)),
        Linear(10, 3, rng=np.random.default_rng(seed + 2)),
    )
    return SparsityManager(model, rng=np.random.default_rng(seed + 3))


def check_managers(lib, ref):
    assert lib.rng.bit_generator.state == ref.rng.bit_generator.state
    for name in lib.states:
        same(lib.states[name].mask, ref.states[name].mask)
        same(lib.states[name].parameter.data, ref.states[name].parameter.data)
        assert lib.states[name].pattern_version == ref.states[name].pattern_version
        assert lib.states[name].density_target == ref.states[name].density_target


DENSITIES = {"0.weight": 0.3, "1.weight": 0.05, "2.weight": 0.9}


@pytest.mark.parametrize("lib_init,ref_init", [
    (SparsityManager.init_random, ref_init_random),
    (SparsityManager.init_from_magnitude, ref_init_from_magnitude),
])
def test_mask_inits(lib_init, ref_init):
    lib, ref = make_manager(), make_manager()
    lib_init(lib, DENSITIES)
    ref_init(ref, DENSITIES)
    check_managers(lib, ref)
    lib_init(lib, {name: 1.0 - d for name, d in DENSITIES.items()})
    ref_init(ref, {name: 1.0 - d for name, d in DENSITIES.items()})
    check_managers(lib, ref)
    bad = dict(DENSITIES, **{"1.weight": 1.5})
    assert raised(lambda: lib_init(lib, bad)) == raised(lambda: ref_init(ref, bad))
    check_managers(lib, ref)


def test_topology_edits():
    lib, ref = make_manager(), make_manager()
    lib.init_random(DENSITIES)
    ref_init_random(ref, DENSITIES)
    rng = np.random.default_rng(42)
    # Counts cover the no-op (<= 0), partial, and more-than-available cases.
    for count in (0, -2, 1, 5, 17, 400, 3):
        for name in lib.states:
            scores = rng.standard_normal(lib.states[name].shape).astype(np.float32)
            lib_state, ref_state = lib.states[name], ref.states[name]
            edits = [
                (lib_state.drop_by_score(count, scores),
                 ref_drop_by_score(ref_state, count, scores)),
                (lib_state.grow_by_score(count, scores),
                 ref_grow_by_score(ref_state, count, scores)),
                (lib_state.grow_random(count, lib.rng),
                 ref_grow_random(ref_state, count, ref.rng)),
                (lib_state.drop_by_magnitude(count),
                 ref_drop_by_score(ref_state, count, ref_state.parameter.data)),
            ]
            for got, want in edits:
                same(got, want)
            # Reviving weights so the next drop by magnitude has a ranking.
            for state in (lib_state, ref_state):
                state.parameter.data += scores * state.mask
            check_managers(lib, ref)


def test_edits_on_a_frozen_state_raise_alike():
    lib, ref = make_manager(), make_manager()
    lib.init_random(DENSITIES)
    ref_init_random(ref, DENSITIES)
    lib_state, ref_state = lib.states["0.weight"], ref.states["0.weight"]
    lib_state.freeze()
    ref_state.freeze()
    scores = np.ones(lib_state.shape, dtype=np.float32)
    for lib_edit, ref_edit in [
        (lambda: lib_state.drop_by_score(0, scores), lambda: ref_drop_by_score(ref_state, 0, scores)),
        (lambda: lib_state.grow_by_score(2, scores), lambda: ref_grow_by_score(ref_state, 2, scores)),
        (lambda: lib_state.grow_random(2, lib.rng), lambda: ref_grow_random(ref_state, 2, ref.rng)),
    ]:
        with pytest.raises(RuntimeError) as got:
            lib_edit()
        with pytest.raises(RuntimeError) as want:
            ref_edit()
        assert str(got.value) == str(want.value)
    assert lib.rng.bit_generator.state == ref.rng.bit_generator.state
