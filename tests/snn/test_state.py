"""Neuron/network state snapshot-restore lifecycle.

The streaming layer swaps per-stream membrane state in and out of a
shared model around every forward; these tests pin the contract that
makes that exact: a restored state continues **bit-identically** to the
uninterrupted run, for every stateful module and for whole networks.
"""

import numpy as np
import pytest

from repro.nn.module import Module
from repro.snn import (
    AdaptiveLIFNeuron,
    BaseNeuron,
    IFNeuron,
    LIFNeuron,
    ParametricLIFNeuron,
    reset_net,
)
from repro.snn.functional import restore_net_state, snapshot_net_state
from repro.snn.models import SpikingMLP
from repro.tensor import Tensor

NEURONS = [
    lambda: LIFNeuron(alpha=0.5),
    lambda: IFNeuron(),
    lambda: ParametricLIFNeuron(),
    lambda: AdaptiveLIFNeuron(beta=0.2),
]


def drive(module, currents):
    return [module(Tensor(c)).data.copy() for c in currents]


def make_currents(count, width=5, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.5, 1.5, size=(2, width)).astype(np.float32)
            for _ in range(count)]


@pytest.mark.parametrize("factory", NEURONS)
class TestNeuronStateRoundTrip:
    def test_restore_continues_bit_identically(self, factory):
        currents = make_currents(8)
        golden = drive(factory(), currents)

        neuron = factory()
        drive(neuron, currents[:4])
        snapshot = neuron.snapshot_state()
        drive(neuron, currents[4:])  # wander off past the snapshot point
        neuron.restore_state(snapshot)
        replayed = drive(neuron, currents[4:])
        for want, got in zip(golden[4:], replayed):
            assert np.array_equal(want, got)

    def test_snapshot_is_detached(self, factory):
        neuron = factory()
        drive(neuron, make_currents(2))
        snapshot = neuron.snapshot_state()
        membrane = neuron.v.data.copy()
        snapshot["v"] += 100.0
        assert np.array_equal(neuron.v.data, membrane)

    def test_fresh_state_round_trips_through_none(self, factory):
        neuron = factory()
        snapshot = neuron.snapshot_state()
        assert snapshot["v"] is None
        currents = make_currents(3)
        golden = drive(factory(), currents)
        neuron.restore_state(snapshot)  # restoring "fresh" is a reset
        for want, got in zip(golden, drive(neuron, currents)):
            assert np.array_equal(want, got)


class TestAdaptiveThresholdState:
    def test_adaptation_variable_is_captured(self):
        neuron = AdaptiveLIFNeuron(beta=0.5)
        drive(neuron, make_currents(4, seed=1))
        snapshot = neuron.snapshot_state()
        assert snapshot["adaptation"] is not None
        fresh = AdaptiveLIFNeuron(beta=0.5)
        fresh.restore_state(snapshot)
        assert np.array_equal(fresh.adaptation.data, neuron.adaptation.data)


class TestNetworkStateRoundTrip:
    def make_model(self):
        return SpikingMLP(6, 3, hidden=(10,), timesteps=4,
                          rng=np.random.default_rng(5))

    def frames(self, count, seed=6):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.uniform(0, 1, size=(2, 6)).astype(np.float32))
                for _ in range(count)]

    def test_mid_window_snapshot_continues_bit_identically(self):
        frames = self.frames(6)
        golden_model = self.make_model()
        reset_net(golden_model)
        golden = [golden_model.forward_once(f).data.copy() for f in frames]

        model = self.make_model()
        reset_net(model)
        [model.forward_once(f) for f in frames[:3]]
        state = snapshot_net_state(model)
        [model.forward_once(f) for f in frames[3:]]
        restore_net_state(model, state)
        replayed = [model.forward_once(f).data.copy() for f in frames[3:]]
        for want, got in zip(golden[3:], replayed):
            assert np.array_equal(want, got)

    def test_state_keys_are_module_paths(self):
        model = self.make_model()
        reset_net(model)
        state = snapshot_net_state(model)
        assert state  # at least the spiking layers
        for name, entry in state.items():
            assert isinstance(entry, dict)
            # Every key addresses a real submodule with the state API.
            module = dict(model.named_modules())[name]
            assert hasattr(module, "restore_state")

    def test_mismatched_keys_are_rejected(self):
        model = self.make_model()
        reset_net(model)
        state = snapshot_net_state(model)
        missing = dict(state)
        missing.pop(next(iter(missing)))
        with pytest.raises(ValueError, match="missing"):
            restore_net_state(model, missing)
        extra = dict(state)
        extra["phantom.neuron"] = {"v": None, "o_prev": None}
        with pytest.raises(ValueError, match="unexpected"):
            restore_net_state(model, extra)


KINDS = ["lif", "if", "plif", "alif"]


@pytest.mark.parametrize("kind", KINDS)
class TestEveryNeuronKindInANetwork:
    """The network walks reach every neuron kind, ALIF's adaptation
    trace included: neurons are the only temporal state a model holds."""

    def make_model(self, kind):
        return SpikingMLP(6, 3, hidden=(10, 8), timesteps=4, neuron_kind=kind,
                          rng=np.random.default_rng(5))

    def frames(self, count, seed=6):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.uniform(0, 2, size=(2, 6)).astype(np.float32))
                for _ in range(count)]

    def test_mid_window_snapshot_continues_bit_identically(self, kind):
        frames = self.frames(6)
        golden_model = self.make_model(kind)
        reset_net(golden_model)
        golden = [golden_model.forward_once(f).data.copy() for f in frames]

        model = self.make_model(kind)
        reset_net(model)
        [model.forward_once(f) for f in frames[:3]]
        state = snapshot_net_state(model)
        [model.forward_once(f) for f in frames[3:]]
        restore_net_state(model, state)
        replayed = [model.forward_once(f).data.copy() for f in frames[3:]]
        for want, got in zip(golden[3:], replayed):
            assert want.tobytes() == got.tobytes()

    def test_snapshot_keys_are_exactly_the_neuron_paths(self, kind):
        model = self.make_model(kind)
        reset_net(model)
        neurons = {name for name, module in model.named_modules()
                   if isinstance(module, BaseNeuron)}
        assert len(neurons) == 2
        assert set(snapshot_net_state(model)) == neurons

    def test_reset_net_clears_every_neuron(self, kind):
        model = self.make_model(kind)
        reset_net(model)
        [model.forward_once(f) for f in self.frames(3)]
        for entry in snapshot_net_state(model).values():
            assert all(value is not None for value in entry.values())
        reset_net(model)
        for entry in snapshot_net_state(model).values():
            assert all(value is None for value in entry.values())


class TestOnlyNeuronsHoldState:
    def test_a_module_with_the_state_methods_is_not_walked(self):
        class Buffer(Module):
            """Has the neuron state API but is not a neuron."""

            def __init__(self):
                super().__init__()
                self.calls = []

            def reset_state(self):
                self.calls.append("reset")

            def snapshot_state(self):
                self.calls.append("snapshot")
                return {}

            def restore_state(self, state):
                self.calls.append("restore")

        class Net(Module):
            def __init__(self):
                super().__init__()
                self.buffer = Buffer()
                self.neuron = LIFNeuron()

        net = Net()
        reset_net(net)
        state = snapshot_net_state(net)
        restore_net_state(net, state)
        assert set(state) == {"neuron"}
        assert net.buffer.calls == []
