"""LIF/IF/PLIF neuron dynamics (paper Eq. 1) and BPTT gradients."""

import numpy as np
import pytest

from repro.nn.module import Module
from repro.snn import (
    AdaptiveLIFNeuron,
    FastInverse,
    IFNeuron,
    LIFNeuron,
    ParametricLIFNeuron,
    build_neuron,
    reset_net,
    spike_function,
)
from repro.tensor import Tensor


def drive(neuron, currents):
    """Feed a list of scalar currents; return the output spike list."""
    outputs = []
    for current in currents:
        out = neuron(Tensor(np.array([current], dtype=np.float32)))
        outputs.append(float(out.data[0]))
    return outputs


class TestLIFDynamics:
    def test_single_step_spike(self):
        neuron = LIFNeuron(alpha=0.5, v_threshold=1.0)
        assert drive(neuron, [1.5]) == [1.0]

    def test_subthreshold_no_spike(self):
        neuron = LIFNeuron(alpha=0.5, v_threshold=1.0)
        assert drive(neuron, [0.5]) == [0.0]

    def test_integration_to_threshold(self):
        # v1 = 0.6 (no spike); v2 = 0.5*0.6 + 0.8 = 1.1 >= 1 -> spike
        neuron = LIFNeuron(alpha=0.5, v_threshold=1.0)
        assert drive(neuron, [0.6, 0.8]) == [0.0, 1.0]

    def test_soft_reset_subtracts_threshold(self):
        # After spiking at v=1.5, the next membrane is
        # 0.5*1.5 + 0.5 - 1.0*1 = 0.25 -> no spike.
        neuron = LIFNeuron(alpha=0.5, v_threshold=1.0)
        outputs = drive(neuron, [1.5, 0.5])
        assert outputs == [1.0, 0.0]
        assert np.isclose(neuron.v.data[0], 0.25)

    def test_matches_hand_rolled_recurrence(self):
        rng = np.random.default_rng(0)
        currents = rng.uniform(-0.5, 1.5, size=10)
        alpha, theta = 0.7, 1.0
        neuron = LIFNeuron(alpha=alpha, v_threshold=theta)
        got = drive(neuron, currents)
        v, o_prev = 0.0, 0.0
        expected = []
        for index, current in enumerate(currents):
            if index == 0:
                v = current
            else:
                v = alpha * v + current - theta * o_prev
            o = 1.0 if v >= theta else 0.0
            expected.append(o)
            o_prev = o
        assert got == expected

    def test_reset_state(self):
        neuron = LIFNeuron()
        drive(neuron, [2.0])
        neuron.reset_state()
        assert neuron.v is None and neuron.o_prev is None

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            LIFNeuron(alpha=0.0)
        with pytest.raises(ValueError):
            LIFNeuron(alpha=1.5)


class TestIFNeuron:
    def test_no_leak(self):
        neuron = IFNeuron(v_threshold=1.0)
        # 0.4 + 0.4 + 0.4 = 1.2 crosses threshold on step 3.
        assert drive(neuron, [0.4, 0.4, 0.4]) == [0.0, 0.0, 1.0]


class TestSpikeStats:
    def test_counts_accumulate(self):
        neuron = LIFNeuron()
        x = Tensor(np.full((2, 3), 2.0, dtype=np.float32))
        neuron(x)
        assert neuron.spike_count == 6
        assert neuron.neuron_steps == 6
        assert neuron.spike_rate == 1.0

    def test_reset_spike_stats(self):
        neuron = LIFNeuron()
        neuron(Tensor(np.full((1,), 2.0, dtype=np.float32)))
        neuron.reset_spike_stats()
        assert neuron.spike_rate == 0.0

    @pytest.mark.parametrize("kind", ["lif", "if", "plif", "alif"])
    def test_every_kind_counts_every_step(self, kind):
        neuron = build_neuron(kind)
        rng = np.random.default_rng(3)
        fired = 0.0
        for _ in range(5):
            out = neuron(Tensor(rng.uniform(0.0, 2.0, size=(3, 4)).astype(np.float32)))
            fired += float(out.data.sum())
        assert fired > 0
        assert neuron.spike_count == fired
        assert neuron.neuron_steps == 5 * 12


class TestSurrogateGradient:
    def test_spike_function_forward_is_heaviside(self):
        x = Tensor(np.array([-0.1, 0.0, 0.1], dtype=np.float32))
        out = spike_function(x, FastInverse())
        assert out.data.tolist() == [0.0, 1.0, 1.0]

    def test_backward_uses_surrogate(self):
        x = Tensor(np.array([0.5], dtype=np.float32), requires_grad=True)
        out = spike_function(x, FastInverse())
        out.backward(np.array([1.0], dtype=np.float32))
        expected = 1.0 / (1.0 + np.pi ** 2 * 0.25)
        assert np.isclose(x.grad[0], expected, atol=1e-5)

    def test_bptt_through_two_timesteps(self):
        """Gradient flows through the membrane recurrence."""
        w = Tensor(np.array([0.8], dtype=np.float32), requires_grad=True)
        neuron = LIFNeuron(alpha=0.5, v_threshold=1.0)
        total = None
        for _ in range(3):
            out = neuron(w * 1.0)
            total = out if total is None else total + out
        total.backward(np.array([1.0], dtype=np.float32))
        assert w.grad is not None
        assert w.grad[0] != 0.0


class TestParametricLIF:
    def test_decay_is_learnable(self):
        neuron = ParametricLIFNeuron(init_alpha=0.5)
        assert any(p is neuron.decay_logit for p in neuron.parameters())
        for _ in range(3):
            out = neuron(Tensor(np.array([0.8], dtype=np.float32)))
        out.backward(np.array([1.0], dtype=np.float32))
        assert neuron.decay_logit.grad is not None

    def test_initial_decay_value(self):
        neuron = ParametricLIFNeuron(init_alpha=0.25)
        alpha = 1.0 / (1.0 + np.exp(-neuron.decay_logit.data[0]))
        assert np.isclose(alpha, 0.25, atol=1e-5)

    @pytest.mark.parametrize("init_alpha", [1.5, -0.2, 0.0, 1.0])
    def test_rejects_init_alpha_outside_open_unit_interval(self, init_alpha):
        with pytest.raises(ValueError, match=r"init_alpha must lie in \(0, 1\)"):
            ParametricLIFNeuron(init_alpha=init_alpha)


class TestAdaptiveLIF:
    def test_threshold_rises_after_spiking(self):
        neuron = AdaptiveLIFNeuron(alpha=1.0, v_threshold=1.0, beta=10.0, rho=0.9)
        # First big input fires; adaptation then blocks an identical one
        # that a plain LIF would pass (soft reset leaves v = 0.5; +1.5
        # gives 2.0 >= 1.0, but threshold is now 1 + 10*1 = 11).
        outputs = drive(neuron, [1.5, 1.5])
        assert outputs[0] == 1.0
        assert outputs[1] == 0.0

    def test_zero_beta_matches_lif(self):
        currents = list(np.random.default_rng(0).uniform(-0.5, 1.5, size=12))
        alif = AdaptiveLIFNeuron(alpha=0.5, v_threshold=1.0, beta=0.0, rho=0.9)
        lif = LIFNeuron(alpha=0.5, v_threshold=1.0)
        assert drive(alif, currents) == drive(lif, currents)

    def test_adaptation_decays(self):
        neuron = AdaptiveLIFNeuron(alpha=0.5, v_threshold=1.0, beta=1.0, rho=0.5)
        drive(neuron, [2.0])
        assert neuron.adaptation[0] == 1.0
        drive(neuron, [0.0, 0.0])
        assert neuron.adaptation[0] == 0.25

    def test_reset_clears_adaptation(self):
        neuron = AdaptiveLIFNeuron()
        drive(neuron, [2.0])
        neuron.reset_state()
        assert neuron.adaptation is None and neuron.v is None

    def test_gradients_flow(self):
        w = Tensor(np.array([0.9], dtype=np.float32), requires_grad=True)
        neuron = AdaptiveLIFNeuron(alpha=0.5, beta=0.1)
        total = None
        for _ in range(3):
            out = neuron(w * 1.0)
            total = out if total is None else total + out
        total.backward(np.array([1.0], dtype=np.float32))
        assert w.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLIFNeuron(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveLIFNeuron(rho=1.0)
        with pytest.raises(ValueError):
            AdaptiveLIFNeuron(beta=-1.0)


class TestFactoryAndReset:
    def test_build_neuron_kinds(self):
        assert isinstance(build_neuron("lif"), LIFNeuron)
        assert isinstance(build_neuron("if"), IFNeuron)
        assert isinstance(build_neuron("plif"), ParametricLIFNeuron)
        assert isinstance(build_neuron("alif"), AdaptiveLIFNeuron)

    def test_build_neuron_passes_alpha_through(self):
        assert build_neuron("lif", alpha=0.25).alpha == 0.25
        assert build_neuron("alif", alpha=0.25).alpha == 0.25
        plif = build_neuron("plif", alpha=0.25, v_threshold=0.5)
        assert np.isclose(float(plif.decay_logit.sigmoid().data[0]), 0.25, atol=1e-5)
        assert plif.v_threshold == 0.5
        # IF has no leak: alpha is accepted and ignored.
        assert isinstance(build_neuron("if", alpha=0.5), IFNeuron)

    def test_build_neuron_with_surrogate_string(self):
        neuron = build_neuron("lif", surrogate="triangle")
        assert neuron.surrogate.name == "triangle"

    def test_build_neuron_unknown(self):
        with pytest.raises(ValueError):
            build_neuron("hodgkin_huxley")

    def test_reset_net_resets_all(self):
        class TwoNeurons(Module):
            def __init__(self):
                super().__init__()
                self.a = LIFNeuron()
                self.b = LIFNeuron()

        model = TwoNeurons()
        model.a(Tensor(np.array([2.0], dtype=np.float32)))
        model.b(Tensor(np.array([2.0], dtype=np.float32)))
        reset_net(model)
        assert model.a.v is None and model.b.v is None
