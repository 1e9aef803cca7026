"""Numpy-backed autograd tensor engine.

This subpackage is the computational substrate of the NDSNN
reproduction: a reverse-mode autodiff engine with the operations needed
to train convolutional spiking neural networks with BPTT.
"""

from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack, where
from .conv import (
    avg_pool2d,
    col2im,
    conv_output_shape,
    im2col_t,
    max_pool2d,
)
from .functional import (
    accuracy,
    cross_entropy,
    dense_products,
    log_softmax,
    masked_conv2d,
    masked_linear,
    one_hot,
    softmax,
)
from .gradcheck import check_gradients, numeric_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "stack",
    "concatenate",
    "where",
    "avg_pool2d",
    "max_pool2d",
    "im2col_t",
    "col2im",
    "conv_output_shape",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "dense_products",
    "masked_linear",
    "masked_conv2d",
    "accuracy",
    "one_hot",
    "check_gradients",
    "numeric_gradient",
]
