"""Synthetic image classification datasets.

The offline reproduction environment has no access to CIFAR-10,
CIFAR-100 or Tiny-ImageNet downloads, so we substitute deterministic
class-conditional generators with the same tensor shapes and class
counts (documented in DESIGN.md).  Each class owns a prototype built
from class-specific 2-D sinusoid textures and Gaussian blobs; samples
are noisy, randomly shifted instances of their class prototype.  The
task is learnable but not trivial: with default noise, a linear model
is far from perfect while a small convnet separates classes well, so
*relative orderings* between sparse-training methods remain meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape/difficulty specification of a synthetic dataset."""

    name: str
    num_classes: int
    image_size: int
    in_channels: int = 3
    noise: float = 0.35
    shift: int = 2
    texture_components: int = 4

    def scaled(self, image_size: Optional[int] = None, num_classes: Optional[int] = None) -> "SyntheticSpec":
        """Return a copy with a different resolution/class count.

        Used by the CPU-scale benchmark harness; the generator keeps the
        same per-class texture statistics at any size.
        """
        return SyntheticSpec(
            name=self.name,
            num_classes=num_classes if num_classes is not None else self.num_classes,
            image_size=image_size if image_size is not None else self.image_size,
            in_channels=self.in_channels,
            noise=self.noise,
            shift=self.shift,
            texture_components=self.texture_components,
        )


CIFAR10_SPEC = SyntheticSpec(name="cifar10", num_classes=10, image_size=32)
CIFAR100_SPEC = SyntheticSpec(name="cifar100", num_classes=100, image_size=32)
TINY_IMAGENET_SPEC = SyntheticSpec(name="tiny_imagenet", num_classes=200, image_size=64)

DATASET_SPECS = {
    "cifar10": CIFAR10_SPEC,
    "cifar100": CIFAR100_SPEC,
    "tiny_imagenet": TINY_IMAGENET_SPEC,
}


def _class_prototype(spec: SyntheticSpec, class_index: int, seed: int) -> np.ndarray:
    """Deterministic prototype image for one class."""
    rng = np.random.default_rng(seed * 1_000_003 + class_index)
    size = spec.image_size
    yy, xx = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    prototype = np.zeros((spec.in_channels, size, size), dtype=np.float32)
    for channel in range(spec.in_channels):
        image = np.zeros((size, size), dtype=np.float64)
        # Class-specific sinusoid textures.
        for _ in range(spec.texture_components):
            freq = rng.uniform(1.0, 4.0)
            angle = rng.uniform(0.0, np.pi)
            phase = rng.uniform(0.0, 2 * np.pi)
            direction = np.cos(angle) * xx + np.sin(angle) * yy
            image += rng.uniform(0.4, 1.0) * np.sin(2 * np.pi * freq * direction + phase)
        # A couple of Gaussian blobs give each class a spatial signature.
        for _ in range(2):
            cy, cx = rng.uniform(0.2, 0.8, size=2)
            sigma = rng.uniform(0.08, 0.2)
            image += rng.uniform(0.5, 1.5) * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2)
            )
        image -= image.mean()
        scale = np.abs(image).max()
        if scale > 0:
            image /= scale
        prototype[channel] = image.astype(np.float32)
    return prototype


class SyntheticImageDataset:
    """In-memory synthetic classification dataset.

    Parameters
    ----------
    spec:
        Shape/difficulty specification.
    num_samples:
        Total number of samples (balanced across classes).
    train:
        Train and test splits use disjoint sample seeds.
    seed:
        Base seed; the same (spec, seed) pair always produces the same
        prototypes, so train/test share class structure.
    """

    def __init__(
        self,
        spec: SyntheticSpec,
        num_samples: int,
        train: bool = True,
        seed: int = 0,
    ) -> None:
        if num_samples < spec.num_classes:
            raise ValueError(
                f"need at least one sample per class "
                f"({spec.num_classes}), got {num_samples}"
            )
        self.spec = spec
        self.train = train
        self.seed = seed
        self.prototypes = np.stack(
            [_class_prototype(spec, k, seed) for k in range(spec.num_classes)]
        )
        split_offset = 0 if train else 1_000_000_007
        rng = np.random.default_rng(seed * 7_919 + split_offset)
        labels = np.arange(num_samples) % spec.num_classes
        rng.shuffle(labels)
        self.labels = labels.astype(np.int64)
        self.images = self._render(rng)

    def _render(self, rng: np.random.Generator) -> np.ndarray:
        spec = self.spec
        images = np.empty(
            (len(self.labels), spec.in_channels, spec.image_size, spec.image_size),
            dtype=np.float32,
        )
        for index, label in enumerate(self.labels):
            image = self.prototypes[label].copy()
            if spec.shift > 0:
                dy, dx = rng.integers(-spec.shift, spec.shift + 1, size=2)
                image = np.roll(image, (int(dy), int(dx)), axis=(1, 2))
            image += rng.normal(0.0, spec.noise, size=image.shape).astype(np.float32)
            images[index] = image
        return images

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes


class ArrayDataset:
    """Wrap pre-built arrays as a dataset."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same length")
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])


def make_dataset(
    name: str,
    train: bool = True,
    num_samples: int = 512,
    image_size: Optional[int] = None,
    num_classes: Optional[int] = None,
    seed: int = 0,
) -> SyntheticImageDataset:
    """Build a synthetic stand-in for a paper dataset by name.

    ``image_size``/``num_classes`` overrides support the scaled-down
    benchmark configurations.
    """
    try:
        spec = DATASET_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}"
        ) from None
    spec = spec.scaled(image_size=image_size, num_classes=num_classes)
    return SyntheticImageDataset(spec, num_samples=num_samples, train=train, seed=seed)
