"""Data substrate: synthetic datasets, loaders and augmentation."""

from .augment import (
    Compose,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    standard_train_transform,
)
from .loader import DataLoader
from .synthetic import (
    CIFAR10_SPEC,
    CIFAR100_SPEC,
    DATASET_SPECS,
    TINY_IMAGENET_SPEC,
    ArrayDataset,
    SyntheticImageDataset,
    SyntheticSpec,
    make_dataset,
)

__all__ = [
    "SyntheticImageDataset",
    "SyntheticSpec",
    "ArrayDataset",
    "make_dataset",
    "DATASET_SPECS",
    "CIFAR10_SPEC",
    "CIFAR100_SPEC",
    "TINY_IMAGENET_SPEC",
    "DataLoader",
    "Compose",
    "RandomCrop",
    "RandomHorizontalFlip",
    "Normalize",
    "standard_train_transform",
]
