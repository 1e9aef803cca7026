"""Meters and evaluation helpers."""

import numpy as np

from repro.data import ArrayDataset, DataLoader
from repro.snn.models import SpikingMLP
from repro.train import AverageMeter, evaluate


class TestAverageMeter:
    def test_weighted_average(self):
        meter = AverageMeter()
        meter.update(1.0, weight=1)
        meter.update(3.0, weight=3)
        assert meter.average == 2.5

    def test_empty_is_zero(self):
        assert AverageMeter().average == 0.0

    def test_reset(self):
        meter = AverageMeter()
        meter.update(5.0)
        meter.reset()
        assert meter.average == 0.0


def tiny_model_and_loader(seed=0):
    rng = np.random.default_rng(seed)
    model = SpikingMLP(in_features=8, num_classes=3, hidden=(12,), timesteps=2, rng=rng)
    images = rng.standard_normal((12, 8)).astype(np.float32)
    labels = rng.integers(0, 3, 12)
    loader = DataLoader(ArrayDataset(images, labels), batch_size=4, shuffle=False)
    return model, loader


class TestEvaluate:
    def test_returns_fraction(self):
        model, loader = tiny_model_and_loader()
        accuracy = evaluate(model, loader)
        assert 0.0 <= accuracy <= 1.0

    def test_restores_training_mode(self):
        model, loader = tiny_model_and_loader()
        model.train()
        evaluate(model, loader)
        assert model.training
        model.eval()
        evaluate(model, loader)
        assert not model.training

    def test_max_batches(self):
        model, loader = tiny_model_and_loader()
        accuracy = evaluate(model, loader, max_batches=1)
        assert 0.0 <= accuracy <= 1.0

    def test_empty_loader(self):
        model, _ = tiny_model_and_loader()
        assert evaluate(model, []) == 0.0

