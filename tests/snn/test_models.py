"""Spiking model zoo: shapes, gradients, registry, spike accounting."""

import numpy as np
import pytest

from repro.snn import reset_spike_stats, spike_rate, spike_rates_per_layer
from repro.snn.models import (
    MODEL_REGISTRY,
    SpikingConvNet,
    SpikingMLP,
    build_model,
    flattened_spatial,
    scaled_width,
)
from repro.tensor import Tensor, cross_entropy


def batch(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


class TestZooShapes:
    @pytest.mark.parametrize("name", ["vgg16", "vgg11", "vgg9", "resnet19", "lenet5"])
    def test_forward_shape(self, name):
        model = build_model(
            name, num_classes=7, image_size=32, timesteps=2,
            width_mult=0.0625, rng=np.random.default_rng(0),
        )
        out = model(batch((2, 3, 32, 32)))
        assert out.shape == (2, 7)

    def test_convnet_shape(self):
        model = SpikingConvNet(num_classes=5, in_channels=1, image_size=8, channels=(4,), timesteps=2)
        assert model(batch((3, 1, 8, 8))).shape == (3, 5)

    def test_mlp_flattens_images(self):
        model = SpikingMLP(in_features=48, num_classes=4, hidden=(16,), timesteps=2)
        assert model(batch((2, 3, 4, 4))).shape == (2, 4)

    def test_vgg16_layer_inventory(self):
        """VGG-16 config D: 13 conv layers + 1 classifier."""
        model = build_model("vgg16", num_classes=10, width_mult=0.0625)
        conv_weights = [p for _, p in model.named_parameters() if p.ndim == 4]
        assert len(conv_weights) == 13

    def test_resnet19_layer_inventory(self):
        """ResNet-19: 1 stem + 8 blocks x 2 convs + shortcuts + 2 FC."""
        model = build_model("resnet19", num_classes=10, width_mult=0.0625)
        conv_weights = [p for _, p in model.named_parameters() if p.ndim == 4]
        fc_weights = [p for _, p in model.named_parameters() if p.ndim == 2]
        # 1 stem + 16 block convs + 2 downsample shortcuts = 19 conv tensors
        assert len(conv_weights) == 19
        assert len(fc_weights) == 2

    def test_tiny_imagenet_geometry(self):
        model = build_model(
            "vgg16", num_classes=20, image_size=64, timesteps=2, width_mult=0.0625
        )
        assert model(batch((1, 3, 64, 64))).shape == (1, 20)


class TestBPTTGradients:
    @pytest.mark.parametrize("name", ["vgg9", "resnet19", "lenet5"])
    def test_all_parameters_receive_gradients(self, name):
        model = build_model(
            name, num_classes=4, image_size=16, timesteps=2,
            width_mult=0.0625, rng=np.random.default_rng(1),
        )
        x = batch((2, 3, 16, 16), seed=2)
        loss = cross_entropy(model(x), np.array([0, 1]))
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_timesteps_change_output(self):
        kwargs = dict(num_classes=3, in_channels=1, image_size=8, channels=(4,), rng=np.random.default_rng(3))
        model_t1 = SpikingConvNet(timesteps=1, **kwargs)
        kwargs["rng"] = np.random.default_rng(3)
        model_t4 = SpikingConvNet(timesteps=4, **kwargs)
        x = batch((1, 1, 8, 8), seed=4)
        out1 = model_t1(x)
        out4 = model_t4(x)
        assert not np.allclose(out1.data, out4.data)


class TestSpikeAccounting:
    def test_spike_rate_in_unit_interval(self):
        model = SpikingConvNet(num_classes=3, in_channels=1, image_size=8, channels=(4,), timesteps=3)
        model(batch((2, 1, 8, 8), seed=5))
        rate = spike_rate(model)
        assert 0.0 <= rate <= 1.0

    def test_per_layer_rates(self):
        model = SpikingConvNet(num_classes=3, in_channels=1, image_size=8, channels=(4, 4), timesteps=2)
        model(batch((1, 1, 8, 8), seed=6))
        rates = spike_rates_per_layer(model)
        assert len(rates) == 2
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_reset_spike_stats(self):
        model = SpikingConvNet(num_classes=3, in_channels=1, image_size=8, channels=(4,), timesteps=2)
        model(batch((1, 1, 8, 8), seed=7))
        reset_spike_stats(model)
        assert spike_rate(model) == 0.0


class TestRegistry:
    def test_registry_contents(self):
        assert {"vgg16", "resnet19", "lenet5", "convnet"}.issubset(MODEL_REGISTRY)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("transformer")

    def test_invalid_timesteps(self):
        with pytest.raises(ValueError):
            SpikingConvNet(timesteps=0)


class TestHelpers:
    def test_scaled_width(self):
        assert scaled_width(128, 0.5) == 64
        assert scaled_width(128, 0.001) == 4  # floor

    def test_flattened_spatial(self):
        assert flattened_spatial(32, 5) == 1
        assert flattened_spatial(64, 5) == 2
        assert flattened_spatial(8, 2) == 2


class TestNeuronKinds:
    @pytest.mark.parametrize("kind", ["lif", "if", "plif", "alif"])
    def test_zoo_accepts_neuron_kind(self, kind):
        model = build_model(
            "convnet", num_classes=3, in_channels=1, image_size=8,
            channels=(4,), timesteps=2, neuron_kind=kind,
            rng=np.random.default_rng(0),
        )
        out = model(batch((2, 1, 8, 8), seed=1))
        assert out.shape == (2, 3)

    def test_plif_adds_learnable_decay(self):
        plain = build_model("convnet", num_classes=3, in_channels=1, image_size=8,
                            channels=(4,), timesteps=2, rng=np.random.default_rng(0))
        plif = build_model("convnet", num_classes=3, in_channels=1, image_size=8,
                           channels=(4,), timesteps=2, neuron_kind="plif",
                           rng=np.random.default_rng(0))
        assert plif.count_parameters() == plain.count_parameters() + 1

    def test_unknown_kind_raises(self):
        from repro.snn import build_neuron
        with pytest.raises(ValueError):
            build_neuron(kind="izhikevich")

    def test_resnet_blocks_receive_kind(self):
        model = build_model("resnet19", num_classes=3, image_size=16, timesteps=2,
                            width_mult=0.0625, neuron_kind="if",
                            rng=np.random.default_rng(0))
        from repro.snn import IFNeuron
        neurons = [m for m in model.modules() if isinstance(m, IFNeuron)]
        assert len(neurons) > 10
