"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, a small but complete
autograd engine in the spirit of PyTorch's eager autograd.  It supports
broadcasting, reductions, matrix multiplication and the elementwise
operations needed to train spiking neural networks with backpropagation
through time (BPTT).

The engine records a dynamic tape: every differentiable operation
produces a new :class:`Tensor` holding a backward closure and references
to its parents.  Calling :meth:`Tensor.backward` topologically sorts the
tape and accumulates gradients into every tensor with
``requires_grad=True``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

# Grad mode is per-thread: inference-server worker threads evaluate
# under no_grad() concurrently with training in other threads, and a
# process-global flag would race between them.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Inside the block, operations on tensors do not build the autograd
    tape, which saves memory during evaluation.  The switch is
    thread-local, so evaluation on one thread never disables gradients
    on another.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return True if operations are currently recorded on the tape."""
    return getattr(_GRAD_STATE, "enabled", True)


def _dense(array: np.ndarray) -> bool:
    """Whether ``array`` fills its memory without gaps, in some axis order
    and with positive strides: the layout a copy of it keeps."""
    expected = array.itemsize
    for stride, length in sorted((s, n) for s, n in zip(array.strides, array.shape) if n > 1):
        if stride != expected:
            return False
        expected *= length
    return True


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that its shape matches ``shape``.

    Numpy broadcasting may have expanded an operand; the gradient of a
    broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value, dtype=dtype)
    return array


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array data (anything convertible to a numpy float32 array).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward = _backward
        self._prev = _prev if self.requires_grad or _prev else ()
        self._op = _op

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, requires_grad: bool = False, rng: Optional[np.random.Generator] = None) -> "Tensor":
        gen = rng if rng is not None else np.random.default_rng()
        return Tensor(gen.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the tape."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a differentiable copy of this tensor."""
        out = self._make(self.data.copy(), (self,), "clone")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        out._backward = backward
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: Tuple["Tensor", ...], op: str) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _prev=parents if requires else (), _op=op)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``; the first gradient is copied.

        ``owned`` says the backward just built ``grad`` and keeps no other
        reference to it.  Then a float32, writeable ``grad`` that lies
        densely in memory becomes ``self.grad`` as it is: the copy would
        have had the same layout, so every later sum over it adds in the
        same order.
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += grad
        elif owned and grad.dtype == np.float32 and grad.flags.writeable and _dense(grad):
            self.grad = grad
        else:
            self.grad = np.array(grad, dtype=np.float32, copy=True)

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the objective with respect to this tensor.
            Defaults to ``1.0`` for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only "
                    "supported for scalar tensors"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float32)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # Free intermediate gradients and graph references eagerly for
            # non-leaf nodes to bound BPTT memory.
            if node._prev and node is not self:
                node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data + other_t.data, (self, other_t), "add")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.shape))

        out._backward = backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,), "neg")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        out._backward = backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data - other_t.data, (self, other_t), "sub")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(-grad, other_t.shape), owned=True)

        out._backward = backward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data * other_t.data, (self, other_t), "mul")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.shape), owned=True)
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape), owned=True)

        out._backward = backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data / other_t.data, (self, other_t), "div")

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.shape), owned=True)
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape)
                )

        out._backward = backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make(self.data ** exponent, (self,), "pow")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make(value, (self,), "exp")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * value, owned=True)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,), "log")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = self._make(value, (self,), "sqrt")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / value, owned=True)

        out._backward = backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,), "abs")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data), owned=True)

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(self.data * mask, (self,), "relu")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, owned=True)

        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(value, (self,), "sigmoid")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * value * (1.0 - value), owned=True)

        out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make(value, (self,), "tanh")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - value ** 2), owned=True)

        out._backward = backward
        return out

    def maximum(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        value = np.maximum(self.data, other_t.data)
        out = self._make(value, (self, other_t), "maximum")

        def backward(grad: np.ndarray) -> None:
            self_wins = (self.data >= other_t.data).astype(np.float32)
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * self_wins, self.shape), owned=True)
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * (1.0 - self_wins), other_t.shape),
                                    owned=True)

        out._backward = backward
        return out

    def clip(self, low: Number, high: Number) -> "Tensor":
        value = np.clip(self.data, low, high)
        inside = ((self.data >= low) & (self.data <= high)).astype(np.float32)
        out = self._make(value, (self,), "clip")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * inside, owned=True)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make(np.asarray(value, dtype=np.float32), (self,), "sum")

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(np.float32), owned=True)

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(np.asarray(value, dtype=np.float32), (self,), "max")

        def backward(grad: np.ndarray) -> None:
            g = grad
            v = value
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                v = np.expand_dims(v, axis=axis)
            winners = (self.data == v).astype(np.float32)
            # Split gradient between ties, matching numpy argmax semantics
            # closely enough for training purposes.
            counts = winners.sum(axis=axis, keepdims=True) if axis is not None else winners.sum()
            self._accumulate(np.broadcast_to(g, self.shape) * winners / counts, owned=True)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out = self._make(self.data.reshape(shape), (self,), "reshape")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        out._backward = backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out = self._make(self.data.transpose(axes), (self,), "transpose")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,), "getitem")

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data @ other_t.data, (self, other_t), "matmul")

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                if self.requires_grad:
                    self._accumulate(grad * b, owned=True)
                if other_t.requires_grad:
                    other_t._accumulate(grad * a, owned=True)
                return
            # Lift 1-D operands to matrices; the output gradient gains
            # the corresponding singleton dimension.
            a_mat = a.reshape(1, -1) if a.ndim == 1 else a
            b_mat = b.reshape(-1, 1) if b.ndim == 1 else b
            grad_mat = grad
            if a.ndim == 1:
                grad_mat = np.expand_dims(grad_mat, axis=-2)
            if b.ndim == 1:
                grad_mat = np.expand_dims(grad_mat, axis=-1)
            # Sum over broadcast batch dimensions (e.g. a batched input
            # against a shared weight matrix), then restore 1-D shapes.
            if self.requires_grad:
                grad_a = grad_mat @ np.swapaxes(b_mat, -1, -2)
                self._accumulate(_unbroadcast(grad_a, a_mat.shape).reshape(a.shape), owned=True)
            if other_t.requires_grad:
                grad_b = np.swapaxes(a_mat, -1, -2) @ grad_mat
                other_t._accumulate(_unbroadcast(grad_b, b_mat.shape).reshape(b.shape), owned=True)

        out._backward = backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Comparisons (return plain numpy arrays; non-differentiable)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiably."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _prev=tuple(tensors) if requires else (), _op="stack")

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    out._backward = backward
    return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, differentiably."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _prev=tuple(tensors) if requires else (), _op="concat")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    out._backward = backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition`` is a boolean numpy array."""
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition)
    data = np.where(cond, a_t.data, b_t.data)
    requires = is_grad_enabled() and (a_t.requires_grad or b_t.requires_grad)
    out = Tensor(data, requires_grad=requires, _prev=(a_t, b_t) if requires else (), _op="where")

    def backward(grad: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(_unbroadcast(grad * cond, a_t.shape), owned=True)
        if b_t.requires_grad:
            b_t._accumulate(_unbroadcast(grad * (~cond), b_t.shape), owned=True)

    out._backward = backward
    return out
