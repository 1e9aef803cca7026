"""Layer behaviour and gradients."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.tensor import Tensor, check_gradients


def randn(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


class TestLinear:
    def test_forward_matches_manual(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = randn((4, 3), seed=1)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_gradients(self):
        layer = Linear(3, 2, rng=np.random.default_rng(2))
        x = Tensor(randn((2, 3), seed=3), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias])


class TestConvLayer:
    def test_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = layer(Tensor(randn((2, 3, 8, 8), seed=1)))
        assert out.shape == (2, 8, 4, 4)

    def test_gradients(self):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(4))
        x = Tensor(randn((1, 2, 4, 4), seed=5), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias])


class TestBatchNorm:
    def test_normalizes_in_training(self):
        layer = BatchNorm2d(4)
        x = Tensor(randn((8, 4, 5, 5), seed=6, scale=3.0) + 2.0)
        out = layer(x)
        # Per-channel mean ~0 and var ~1 after normalization.
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        assert np.allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_update(self):
        layer = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.full((4, 2, 3, 3), 10.0, dtype=np.float32))
        layer(x)
        assert np.all(layer.running_mean > 0)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm2d(2)
        x = Tensor(randn((4, 2, 3, 3), seed=7))
        layer(x)
        layer.eval()
        y = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
        out = layer(y)
        expected = (0.0 - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
        assert np.allclose(out.data[0, :, 0, 0], expected, atol=1e-4)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("layer_cls,shape", [(BatchNorm2d, (3, 2, 2, 2)), (BatchNorm1d, (6, 3))])
    def test_gradients(self, layer_cls, shape, training):
        layer = layer_cls(shape[1], momentum=0.5)
        layer.weight.data = randn(shape[1:2], seed=10) + 1.5
        layer.bias.data = randn(shape[1:2], seed=11)
        layer(Tensor(randn(shape, seed=12, scale=2.0) + 1.0))  # non-trivial running stats
        layer.train(training)
        x = Tensor(randn(shape, seed=8), requires_grad=True)
        # Only the gradients are checked: every call in training mode also
        # moves the running statistics, which that mode does not read.
        check_gradients(lambda: (layer(x) * Tensor(randn(shape, seed=9))).sum(),
                        [x, layer.weight, layer.bias])

    def test_input_validation(self):
        layer = BatchNorm2d(2)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 2), dtype=np.float32)))

    def test_batchnorm1d(self):
        layer = BatchNorm1d(3)
        x = Tensor(randn((16, 3), seed=9, scale=2.0) - 1.0)
        out = layer(x)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-4)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 3, 4), dtype=np.float32)))


class TestPoolingLayers:
    def test_avg_and_max(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        assert AvgPool2d(2)(x).shape == (1, 1, 2, 2)
        assert float(MaxPool2d(2)(x).data[0, 0, 0, 0]) == 5.0


class TestDropout:
    def test_identity_in_eval(self):
        layer = Dropout(0.5)
        layer.eval()
        x = Tensor(np.ones((10, 10), dtype=np.float32))
        assert np.allclose(layer(x).data, 1.0)

    def test_scales_in_train(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = layer(x).data
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.4 < (out > 0).mean() < 0.6

    def test_p_zero_is_identity(self):
        layer = Dropout(0.0)
        x = Tensor(np.ones((5, 5), dtype=np.float32))
        assert layer(x) is x

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestMisc:
    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4, 5), dtype=np.float32))
        assert Flatten()(x).shape == (2, 60)

    def test_relu_layer(self):
        x = Tensor(np.array([-1.0, 2.0], dtype=np.float32))
        assert np.allclose(ReLU()(x).data, [0.0, 2.0])

    def test_identity(self):
        x = Tensor(np.zeros(3, dtype=np.float32))
        assert Identity()(x) is x

    def test_sequential_composition_gradients(self):
        model = Sequential(
            Linear(4, 8, rng=np.random.default_rng(10)),
            ReLU(),
            Linear(8, 2, rng=np.random.default_rng(11)),
        )
        x = Tensor(randn((3, 4), seed=12), requires_grad=True)
        check_gradients(lambda: (model(x) ** 2).sum(), [x, model[0].weight])
