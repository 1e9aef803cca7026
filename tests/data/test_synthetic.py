"""Synthetic dataset generators (CIFAR / Tiny-ImageNet stand-ins)."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DATASET_SPECS,
    SyntheticImageDataset,
    SyntheticSpec,
    make_dataset,
)


class TestSpecs:
    def test_paper_dataset_shapes(self):
        assert DATASET_SPECS["cifar10"].num_classes == 10
        assert DATASET_SPECS["cifar10"].image_size == 32
        assert DATASET_SPECS["cifar100"].num_classes == 100
        assert DATASET_SPECS["tiny_imagenet"].num_classes == 200
        assert DATASET_SPECS["tiny_imagenet"].image_size == 64

    def test_scaled_spec(self):
        spec = DATASET_SPECS["cifar100"].scaled(image_size=16, num_classes=20)
        assert spec.image_size == 16 and spec.num_classes == 20
        assert spec.noise == DATASET_SPECS["cifar100"].noise


class TestGeneration:
    def test_shapes_and_types(self):
        dataset = make_dataset("cifar10", num_samples=20, image_size=16)
        image, label = dataset[0]
        assert image.shape == (3, 16, 16)
        assert image.dtype == np.float32
        assert isinstance(label, int)
        assert len(dataset) == 20

    def test_determinism(self):
        a = make_dataset("cifar10", num_samples=16, image_size=8, seed=5)
        b = make_dataset("cifar10", num_samples=16, image_size=8, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = make_dataset("cifar10", num_samples=16, image_size=8, seed=5)
        b = make_dataset("cifar10", num_samples=16, image_size=8, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_train_test_disjoint_samples_same_prototypes(self):
        train = make_dataset("cifar10", train=True, num_samples=16, image_size=8, seed=1)
        test = make_dataset("cifar10", train=False, num_samples=16, image_size=8, seed=1)
        assert np.array_equal(train.prototypes, test.prototypes)
        assert not np.array_equal(train.images, test.images)

    def test_class_balance(self):
        dataset = make_dataset("cifar10", num_samples=100, image_size=8)
        counts = np.bincount(dataset.labels, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_classes_are_separable(self):
        """Nearest-prototype classification beats chance by a wide margin,
        so accuracy comparisons between methods are meaningful."""
        dataset = make_dataset("cifar10", num_samples=100, image_size=16, seed=3)
        flat_prototypes = dataset.prototypes.reshape(10, -1)
        correct = 0
        for image, label in (dataset[i] for i in range(len(dataset))):
            distances = ((flat_prototypes - image.reshape(-1)) ** 2).sum(axis=1)
            correct += int(distances.argmin() == label)
        assert correct / len(dataset) > 0.5  # chance is 0.1

    def test_noise_makes_task_nontrivial(self):
        """Samples differ from their prototype (no degenerate dataset)."""
        dataset = make_dataset("cifar10", num_samples=10, image_size=8, seed=4)
        image, label = dataset[0]
        assert not np.allclose(image, dataset.prototypes[label])

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            make_dataset("cifar100", num_samples=10)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_dataset("imagenet21k")

    def test_properties(self):
        dataset = make_dataset("cifar10", num_samples=20, image_size=8)
        assert dataset.num_classes == 10


class TestArrayDataset:
    def test_wraps_arrays(self):
        images = np.zeros((4, 1, 2, 2), dtype=np.float32)
        labels = np.array([0, 1, 0, 1])
        dataset = ArrayDataset(images, labels)
        assert len(dataset) == 4
        image, label = dataset[1]
        assert label == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1)), np.zeros(2))
