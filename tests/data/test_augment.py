"""Batch augmentation transforms."""

import numpy as np
import pytest

from repro.data import (
    Compose,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    standard_train_transform,
)


def batch(n=4, c=3, size=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, c, size, size)).astype(np.float32)


class TestFlip:
    def test_always_flip(self):
        transform = RandomHorizontalFlip(p=1.0, rng=np.random.default_rng(0))
        data = batch()
        out = transform(data)
        assert np.allclose(out, data[:, :, :, ::-1])

    def test_never_flip(self):
        transform = RandomHorizontalFlip(p=0.0, rng=np.random.default_rng(0))
        data = batch()
        assert np.allclose(transform(data), data)

    def test_partial_flip_preserves_content(self):
        transform = RandomHorizontalFlip(p=0.5, rng=np.random.default_rng(1))
        data = batch()
        out = transform(data)
        for i in range(len(data)):
            assert np.allclose(out[i], data[i]) or np.allclose(out[i], data[i, :, :, ::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomHorizontalFlip(p=2.0)


class TestCrop:
    def test_shape_preserved(self):
        transform = RandomCrop(padding=2, rng=np.random.default_rng(2))
        data = batch(size=8)
        assert transform(data).shape == data.shape

    def test_zero_padding_identity(self):
        transform = RandomCrop(padding=0)
        data = batch()
        assert np.allclose(transform(data), data)

    def test_crop_content_is_shifted_window(self):
        transform = RandomCrop(padding=1, rng=np.random.default_rng(3))
        data = batch(n=1, size=4)
        out = transform(data)
        padded = np.pad(data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        # The output must equal one of the 9 possible windows.
        windows = [
            padded[0, :, top:top + 4, left:left + 4]
            for top in range(3) for left in range(3)
        ]
        assert any(np.allclose(out[0], window) for window in windows)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomCrop(padding=-1)


class TestNormalize:
    def test_standardizes(self):
        transform = Normalize(mean=[1.0, 2.0, 3.0], std=[2.0, 2.0, 2.0])
        data = np.ones((2, 3, 4, 4), dtype=np.float32)
        out = transform(data)
        assert np.allclose(out[:, 0], 0.0)
        assert np.allclose(out[:, 2], -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Normalize(mean=[0.0], std=[0.0])


class TestCompose:
    def test_compose_order(self):
        double = lambda b: b * 2  # noqa: E731
        add_one = lambda b: b + 1  # noqa: E731
        composed = Compose([double, add_one])
        assert np.allclose(composed(np.ones((1, 1, 1, 1), dtype=np.float32)), 3.0)

    def test_standard_train_transform_runs(self):
        transform = standard_train_transform(padding=2, rng=np.random.default_rng(5))
        data = batch()
        assert transform(data).shape == data.shape
