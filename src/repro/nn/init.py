"""Weight initialization schemes."""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np

_DEFAULT_RNG = np.random.default_rng(0)

#: While > 0, every initializer returns zeros instead of drawing from
#: its RNG.  Package loading (:mod:`repro.sparse.packaging`) builds the
#: model geometry under :func:`skip_init` because every parameter is
#: immediately overwritten (or bypassed entirely by a CSR pattern), so
#: the RNG draws would be pure cold-start cost.
_SKIP_DEPTH = 0


@contextmanager
def skip_init():
    """Make all initializers return zeros inside the ``with`` block.

    Nestable and cheap: ``np.zeros`` is a calloc, so building a model
    under ``skip_init()`` costs allocation only.  Only use it when every
    parameter will be overwritten afterwards — the RNG streams are *not*
    advanced, so a model built under it is not comparable to a normally
    initialized one.
    """
    global _SKIP_DEPTH
    _SKIP_DEPTH += 1
    try:
        yield
    finally:
        _SKIP_DEPTH -= 1


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in/fan-out for linear (out, in) or conv (F, C, kh, kw)."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        f, c, kh, kw = shape
        receptive = kh * kw
        return c * receptive, f * receptive
    raise ValueError(f"unsupported parameter shape {shape}")


def _draw(shape, rng, fan_shape, spread, normal: bool = False) -> np.ndarray:
    """The skip-or-draw body every initializer shares.

    Under :func:`skip_init`: zeros, with no RNG draw and no shape check.
    Otherwise ``spread(fan_in, fan_out)`` of ``fan_shape`` is the bound
    of a uniform draw, or with ``normal`` the std of a normal one.
    """
    if _SKIP_DEPTH > 0:
        return np.zeros(shape, dtype=np.float32)
    gen = rng if rng is not None else _DEFAULT_RNG
    scale = spread(*_fan_in_out(fan_shape))
    if normal:
        return (gen.standard_normal(shape) * scale).astype(np.float32)
    return gen.uniform(-scale, scale, size=shape).astype(np.float32)


def kaiming_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He/Kaiming uniform init (default for conv/linear weights)."""
    return _draw(shape, rng, shape, lambda fan_in, _: gain * math.sqrt(3.0 / fan_in))


def kaiming_normal(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He/Kaiming normal init."""
    return _draw(shape, rng, shape, lambda fan_in, _: gain / math.sqrt(fan_in), normal=True)


def xavier_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Glorot/Xavier uniform init."""
    return _draw(shape, rng, shape, lambda fan_in, fan_out: math.sqrt(6.0 / (fan_in + fan_out)))


def uniform_bias(shape: Tuple[int, ...], weight_shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Torch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    return _draw(shape, rng, weight_shape, lambda fan_in, _: 1.0 / math.sqrt(fan_in))


def set_default_seed(seed: int) -> None:
    """Reseed the module-level default initializer RNG."""
    global _DEFAULT_RNG
    _DEFAULT_RNG = np.random.default_rng(seed)
