"""Standard neural network layers on top of the autograd engine."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, avg_pool2d, masked_conv2d, masked_linear, max_pool2d
from . import init
from .module import Module, Parameter


def _keep_index(keep, bound: int, what: str) -> np.ndarray:
    """Validate a keep-index array for :meth:`compact` (sorted, in range)."""
    index = np.asarray(keep, dtype=np.int64).reshape(-1)
    if index.size == 0:
        raise ValueError(f"compact() must keep at least one {what}")
    if index.min() < 0 or index.max() >= bound:
        raise ValueError(f"{what} keep indices out of range [0, {bound})")
    if np.any(np.diff(index) <= 0):
        raise ValueError(f"{what} keep indices must be sorted and unique")
    return index


class _MaskedLayer(Module):
    """Shared body of :class:`Linear` and :class:`Conv2d`.

    The weight has shape ``(out, in, *kernel)``.  When a
    :class:`~repro.sparse.engine.SparsityManager` binds layers,
    ``weight_state`` carries the layer's mask/CSR state and the forward
    pass dispatches dense-vs-CSR by measured density.  Subclasses name
    their output and input units (``_units``) for :meth:`compact`'s
    errors and supply ``forward``.
    """

    def __init__(self, shape, bias: bool, rng: Optional[np.random.Generator]) -> None:
        super().__init__()
        self.weight = Parameter(init.kaiming_uniform(shape, rng=rng))
        self.bias = Parameter(init.uniform_bias(shape[:1], shape, rng=rng)) if bias else None
        self.weight_state = None

    def dispatch_info(self) -> Optional[dict]:
        """Dispatch decision for this layer, or ``None`` when unbound.

        Delegates to the owning manager's ``explain_dispatch`` so users
        can ask a layer directly which route (dense vs CSR) its next
        forward will take and why.
        """
        state = self.weight_state
        if state is None or state.manager is None:
            return None
        return state.manager.explain_dispatch(state.name)

    def compact(self, keep_out=None, keep_in=None):
        """Physically shrink the layer to the kept output/input units.

        Structured pruning zeroes whole output units (rows or filters)
        but still pays dense FLOPs for them; compaction slices the
        pruned units (``keep_out``) and the inputs fed by upstream
        pruned units (``keep_in``) out of the weight, so the layer runs
        a genuinely smaller kernel.  Any bound ``weight_state`` is
        detached — the caller (see
        :func:`repro.sparse.structured.compact_model`) rebinds a fresh
        manager over the sliced shapes.
        """
        weight = self.weight.data
        out_unit, in_unit = self._units
        if keep_out is not None:
            keep_out = _keep_index(keep_out, weight.shape[0], out_unit)
            weight = weight[keep_out]
            if self.bias is not None:
                self.bias = Parameter(self.bias.data[keep_out].copy())
        if keep_in is not None:
            keep_in = _keep_index(keep_in, weight.shape[1], in_unit)
            weight = weight[:, keep_in]
        self.weight = Parameter(np.ascontiguousarray(weight))
        self.weight_state = None
        return self


class Linear(_MaskedLayer):
    """Affine layer ``y = x W^T + b`` with weight shape ``(out, in)``."""

    _units = ("output feature", "input feature")
    out_features = property(lambda self: self.weight.shape[0])
    in_features = property(lambda self: self.weight.shape[1])

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__((out_features, in_features), bias, rng)

    def forward(self, x: Tensor) -> Tensor:
        return masked_linear(x, self.weight, self.bias, self.weight_state)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Conv2d(_MaskedLayer):
    """2-D convolution with filters of shape ``(F, C, kh, kw)``."""

    _units = ("filter", "input channel")
    out_channels = property(lambda self: self.weight.shape[0])
    in_channels = property(lambda self: self.weight.shape[1])

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__((out_channels, in_channels, kernel_size, kernel_size), bias, rng)
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return masked_conv2d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, state=self.weight_state,
        )

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel={self.kernel_size}, stride={self.stride}, pad={self.padding})"
        )


def _feature_rows(array: np.ndarray) -> np.ndarray:
    """``array`` as C-ordered ``(rows, features)``, features on axis 1: a
    view where its memory is already channels-last (a dense conv output),
    else one copy."""
    if array.ndim == 4:
        array = array.transpose(0, 2, 3, 1)
    return np.ascontiguousarray(array).reshape(-1, array.shape[-1])


def _feature_layout(rows: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`_feature_rows`: a view of ``rows`` in ``shape``."""
    if len(shape) == 4:
        n, c, h, w = shape
        return rows.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return rows


class _BatchNorm(Module):
    """Shared body of :class:`BatchNorm1d` and :class:`BatchNorm2d`.

    Statistics run over every axis but the feature axis 1; running
    statistics are kept for evaluation mode, like torch.  Subclasses
    give only the input layout: its rank (``_ndim``) and the error an
    input of another rank raises (``_layout_error``).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        """Normalise ``x`` per feature (batch statistics in training mode,
        running ones in evaluation mode) as one autograd node.

        The node works on C-ordered ``(rows, features)`` copies of ``x``
        and of the upstream gradient (views where they are channels-last,
        as a dense conv output is), so its bytes depend on neither's
        memory layout.  Training mode is the closed form of Ioffe &
        Szegedy (2015): two reductions forward (mean and biased
        variance), then ``x̂ = (x − mean)/σ`` and ``x̂·γ + β``; two
        backward (``Σg`` and ``Σg·x̂``, also the bias and weight
        gradients), then ``dx = (γ/σ)·(g − Σg/M − x̂·Σg·x̂/M)``.
        Evaluation mode is a per-feature scale ``γ/σ`` and shift.  Each
        reduction is an ``einsum`` adding contiguous rows in order, never
        BLAS, so no BLAS thread count moves a bit.
        """
        if x.ndim != self._ndim:
            raise ValueError(self._layout_error)
        rows = _feature_rows(x.data)
        weight, bias = self.weight, self.bias
        training = self.training
        if training:
            inv_count = np.float32(1.0 / rows.shape[0])
            mean = np.einsum("ij->j", rows) * inv_count
            x_hat = rows - mean
            var = np.einsum("ij,ij->j", x_hat, x_hat) * inv_count
            m = self.momentum
            self.update_buffer("running_mean", ((1 - m) * self.running_mean + m * mean).astype(np.float32))
            self.update_buffer("running_var", ((1 - m) * self.running_var + m * var).astype(np.float32))
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + np.float32(self.eps))
        gain = weight.data * inv_std
        if training:
            x_hat *= inv_std
            out_rows = x_hat * weight.data
            out_rows += bias.data
        else:
            out_rows = rows * gain
            out_rows += bias.data - mean * gain
        out = x._make(_feature_layout(out_rows, x.shape), (x, weight, bias), "batch_norm")
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            g = _feature_rows(grad)
            sum_g = np.einsum("ij->j", g)
            bias._accumulate(sum_g, owned=True)
            if training or weight.requires_grad:
                normed = x_hat if training else (_feature_rows(x.data) - mean) * inv_std
                sum_g_x_hat = np.einsum("ij,ij->j", g, normed)
                weight._accumulate(sum_g_x_hat, owned=True)
            if not x.requires_grad:
                return
            if training:
                grad_x = x_hat * (-sum_g_x_hat * inv_count)
                grad_x += g
                grad_x -= sum_g * inv_count
                grad_x *= gain
            else:
                grad_x = g * gain
            x._accumulate(_feature_layout(grad_x, x.shape), owned=True)

        out._backward = backward
        return out

    def compact(self, keep):
        """Shrink to the kept features (affine params + running stats)."""
        keep = _keep_index(keep, self.num_features, "channel")
        self.weight = Parameter(self.weight.data[keep].copy())
        self.bias = Parameter(self.bias.data[keep].copy())
        self.update_buffer("running_mean", self.running_mean[keep].copy())
        self.update_buffer("running_var", self.running_var[keep].copy())
        self.num_features = int(keep.size)
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm1d(_BatchNorm):
    """Batch normalization over ``(N, F)`` inputs."""

    _ndim = 2
    _layout_error = "BatchNorm1d expects (N, F) input"


class BatchNorm2d(_BatchNorm):
    """Batch normalization over ``(N, C, H, W)`` inputs."""

    _ndim = 4
    _layout_error = "BatchNorm2d expects (N, C, H, W) input"


class _Pool2d(Module):
    """Shared body of the pooling layers; ``_pool`` is the functional op."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return self._pool(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kernel={self.kernel_size})"


class AvgPool2d(_Pool2d):
    """Average pooling layer."""

    _pool = staticmethod(avg_pool2d)


class MaxPool2d(_Pool2d):
    """Max pooling layer."""

    _pool = staticmethod(max_pool2d)


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * Tensor(mask)


class Identity(Module):
    """Pass-through layer; handy for optional residual shortcuts."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)
