"""Network-level spiking utilities: rate aggregation math."""

import numpy as np
import pytest

from repro.nn.module import Module
from repro.snn import (
    BaseNeuron,
    LIFNeuron,
    reset_net,
    reset_spike_stats,
    spike_rate,
    spike_rates_per_layer,
)
from repro.snn.models import SpikingMLP
from repro.tensor import Tensor


class TwoNeuronNet(Module):
    def __init__(self):
        super().__init__()
        self.first = LIFNeuron()
        self.second = LIFNeuron()

    def forward(self, x):
        return self.second(self.first(x))


class TestAggregation:
    def test_global_rate_is_weighted_mean(self):
        net = TwoNeuronNet()
        # first neuron: all 4 units fire (input 2.0); second sees spikes
        # of value 1.0 -> fires all as well (1.0 >= threshold).
        net(Tensor(np.full((1, 4), 2.0, dtype=np.float32)))
        per_layer = spike_rates_per_layer(net)
        total = spike_rate(net)
        expected = np.mean(list(per_layer.values()))
        assert np.isclose(total, expected)

    def test_rate_zero_without_activity(self):
        net = TwoNeuronNet()
        assert spike_rate(net) == 0.0

    def test_rates_accumulate_across_forwards(self):
        net = TwoNeuronNet()
        net(Tensor(np.full((1, 2), 2.0, dtype=np.float32)))
        first_steps = net.first.neuron_steps
        net(Tensor(np.full((1, 2), 2.0, dtype=np.float32)))
        assert net.first.neuron_steps == 2 * first_steps

    def test_reset_spike_stats_only_clears_counters(self):
        net = TwoNeuronNet()
        net(Tensor(np.full((1, 2), 2.0, dtype=np.float32)))
        reset_spike_stats(net)
        assert spike_rate(net) == 0.0
        # membrane state untouched
        assert net.first.v is not None

    def test_reset_net_only_clears_state(self):
        net = TwoNeuronNet()
        net(Tensor(np.full((1, 2), 2.0, dtype=np.float32)))
        count = net.first.spike_count
        reset_net(net)
        assert net.first.v is None
        assert net.first.spike_count == count


@pytest.mark.parametrize("kind", ["lif", "if", "plif", "alif"])
def test_every_neuron_kind_is_aggregated(kind):
    model = SpikingMLP(6, 3, hidden=(10, 8), timesteps=3, neuron_kind=kind,
                       rng=np.random.default_rng(2))
    rng = np.random.default_rng(4)
    model(Tensor(rng.uniform(0, 2, size=(2, 6)).astype(np.float32)))
    neurons = {name: module for name, module in model.named_modules()
               if isinstance(module, BaseNeuron)}
    per_layer = spike_rates_per_layer(model)
    assert set(per_layer) == set(neurons)
    assert all(per_layer[name] == neuron.spike_rate for name, neuron in neurons.items())
    spikes = sum(neuron.spike_count for neuron in neurons.values())
    steps = sum(neuron.neuron_steps for neuron in neurons.values())
    assert spikes > 0 and spike_rate(model) == spikes / steps
    reset_spike_stats(model)
    assert all(neuron.neuron_steps == 0 for neuron in neurons.values())
