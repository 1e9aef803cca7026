"""Loss functions, classification helpers and the masked layer ops.

:func:`masked_linear` and :func:`masked_conv2d` are the autograd nodes
of every ``Linear`` and ``Conv2d``.  Each needs its layer's two row
products: the forward ``rows @ W^T`` and the input gradient
``grad_rows @ W``.  An unmasked layer (``state is None``) takes the
dense pair, :func:`dense_products`.  A masked layer asks its bound state
(:meth:`~repro.sparse.engine.MaskedParameter.products`), which picks
the dense or CSR route and counts it on the owning manager, so this
module holds no dispatch policy and imports nothing from
:mod:`repro.sparse`.

Gradient parity: the CSR route computes the *weight* gradient densely
(the drop-and-grow methods score regrowth by dense gradient magnitude,
so sparsifying it would change the algorithm) while the forward product
and the input gradient run at sparse cost.
"""

from __future__ import annotations

import numpy as np

from .conv import _pair, col2im, conv_output_shape, im2col_t
from .tensor import Tensor, is_grad_enabled


def dense_products(weight: np.ndarray):
    """The dense ``(forward, input_grad)`` pair of an ``(out, in)`` matrix.

    ``forward(rows)`` is ``rows @ weight.T`` and ``input_grad(grad_rows)``
    is ``grad_rows @ weight``, both one BLAS call.
    """
    return (lambda rows: rows @ weight.T), (lambda grad_rows: grad_rows @ weight)


def masked_linear(x: Tensor, weight: Tensor, bias: Tensor = None, state=None) -> Tensor:
    """``y = x W^T + b`` on ``(N, in)`` rows: one autograd node, either route.

    ``state`` is the layer's :class:`MaskedParameter` (or ``None`` for
    an unmasked layer).  Both routes share the dense weight gradient
    ``(x^T grad)^T`` and the bias gradient; they differ only in the
    forward and input-gradient products.
    """
    if x.ndim != 2:
        raise ValueError(f"masked_linear takes (N, in) rows, got shape {x.shape}")
    matrix = weight.data
    forward, input_grad = dense_products(matrix) if state is None else state.products(matrix)[1:]
    out_data = forward(x.data)
    if bias is not None:
        out_data = out_data + bias.data

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "masked_linear")

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            # Dense weight gradient: regrowth criteria need scores at
            # *inactive* positions too.  The orientation is pinned, since
            # BLAS sums in an order set by the operands' layout.
            weight._accumulate((x.data.T @ grad).T, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(input_grad(grad), owned=True)

    out._backward = backward
    return out


def masked_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: int = 1,
    padding: int = 0,
    state=None,
) -> Tensor:
    """2-D convolution with density-based dense/CSR dispatch.

    The only convolution op.  The input is lowered once, straight into
    the ``(C*kh*kw, N*L)`` layout (:func:`~repro.tensor.conv.im2col_t`),
    and both routes share that lowering, the dense weight gradient and
    the :func:`~repro.tensor.conv.col2im` input-gradient scatter of
    ``(N*L, C*kh*kw)`` rows.  They differ only in the forward product
    and the input-gradient product: a BLAS ``(F, K)`` matmul or the
    layer's ``CSRPattern``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} do not match weight channels {c_w}")
    out_h = conv_output_shape(h, kh, stride[0], padding[0])
    out_w = conv_output_shape(w, kw, stride[1], padding[1])
    length = out_h * out_w

    # Operand orientations are pinned: BLAS sums in an order set by the
    # operands' layout, so changing one moves training bits
    # (tests/tensor/test_conv.py).  The dense route's channels-last output
    # is the layout batch norm reduces over without a copy.
    cols_t = im2col_t(x.data, (kh, kw), stride, padding)  # (K, N*L)
    matrix = weight.data.reshape(f, -1)
    forward, input_grad = dense_products(matrix) if state is None else state.products(matrix)[1:]
    out_rows = forward(cols_t.T)
    out_data = out_rows.reshape(n, length, f).transpose(0, 2, 1).reshape(n, f, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make(out_data, parents, "masked_conv2d")

    def backward(grad: np.ndarray) -> None:
        grad_rows = grad.reshape(n, f, length).transpose(0, 2, 1).reshape(n * length, f)
        if weight.requires_grad:
            # Dense weight gradient (regrowth scores need inactive
            # positions too); one BLAS product against the lowering.
            weight._accumulate((cols_t @ grad_rows).T.reshape(weight.shape), owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), owned=True)
        if x.requires_grad:
            x._accumulate(col2im(input_grad(grad_rows), (n, c, h, w), (kh, kw), stride, padding),
                          owned=True)

    out._backward = backward
    return out


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between ``logits`` of shape ``(N, K)`` and
    integer class labels ``targets`` of shape ``(N,)``.

    A dedicated fused op: the backward is the classic
    ``softmax(logits) - one_hot(targets)`` expression, which avoids
    building the elementwise log-softmax graph for every BPTT timestep.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects logits of shape (N, K)")
    n, k = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match batch {n}")

    z = logits.data
    z_max = z.max(axis=1, keepdims=True)
    exp_z = np.exp(z - z_max)
    probs = exp_z / exp_z.sum(axis=1, keepdims=True)
    log_probs = (z - z_max) - np.log(exp_z.sum(axis=1, keepdims=True))

    one_hot = np.zeros_like(z)
    one_hot[np.arange(n), targets] = 1.0
    if label_smoothing > 0.0:
        one_hot = one_hot * (1.0 - label_smoothing) + label_smoothing / k

    loss_value = -(one_hot * log_probs).sum(axis=1).mean()
    requires = is_grad_enabled() and logits.requires_grad
    out = Tensor(
        np.float32(loss_value),
        requires_grad=requires,
        _prev=(logits,) if requires else (),
        _op="cross_entropy",
    )

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(grad * (probs - one_hot) / n, owned=True)

    out._backward = backward
    return out


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` of shape ``(N, K)``."""
    predictions = logits.data.argmax(axis=1)
    return float((predictions == np.asarray(targets)).mean())


def one_hot(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels to a float32 one-hot matrix."""
    targets = np.asarray(targets)
    out = np.zeros((targets.shape[0], num_classes), dtype=np.float32)
    out[np.arange(targets.shape[0]), targets] = 1.0
    return out
