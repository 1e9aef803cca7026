"""Batch-level data augmentation (random crop, flip, normalize).

Mirrors the torchvision transforms the paper's training recipe uses for
CIFAR: random crop with 4-pixel padding, random horizontal flip, and
per-channel normalization.  Transforms operate on stacked numpy batches
of shape ``(N, C, H, W)``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class Compose:
    """Chain batch transforms in order."""

    def __init__(self, transforms: Sequence[Callable[[np.ndarray], np.ndarray]]) -> None:
        self.transforms = list(transforms)

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        for transform in self.transforms:
            batch = transform(batch)
        return batch


class RandomHorizontalFlip:
    """Flip each image left-right with probability ``p``."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng()

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        flips = self.rng.random(batch.shape[0]) < self.p
        out = batch.copy()
        out[flips] = out[flips, :, :, ::-1]
        return out


class RandomCrop:
    """Pad by ``padding`` pixels and crop back to the original size."""

    def __init__(self, padding: int = 4, rng: Optional[np.random.Generator] = None) -> None:
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.padding = padding
        self.rng = rng if rng is not None else np.random.default_rng()

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        if self.padding == 0:
            return batch
        n, c, h, w = batch.shape
        pad = self.padding
        padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out = np.empty_like(batch)
        tops = self.rng.integers(0, 2 * pad + 1, size=n)
        lefts = self.rng.integers(0, 2 * pad + 1, size=n)
        for index in range(n):
            top, left = tops[index], lefts[index]
            out[index] = padded[index, :, top:top + h, left:left + w]
        return out


class Normalize:
    """Per-channel standardization ``(x - mean) / std``."""

    def __init__(self, mean: Sequence[float], std: Sequence[float]) -> None:
        self.mean = np.asarray(mean, dtype=np.float32).reshape(1, -1, 1, 1)
        self.std = np.asarray(std, dtype=np.float32).reshape(1, -1, 1, 1)
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return (batch - self.mean) / self.std


def standard_train_transform(
    padding: int = 4, rng: Optional[np.random.Generator] = None
) -> Compose:
    """The paper's CIFAR recipe: random crop + horizontal flip."""
    generator = rng if rng is not None else np.random.default_rng()
    return Compose([RandomCrop(padding=padding, rng=generator), RandomHorizontalFlip(rng=generator)])
