"""Eq. 1 oracle: the shared neuron step against the per-kind reference steps.

The functions below are frozen copies of the four per-kind ``forward``
methods (LIF, IF, PLIF, ALIF) and the two ``forward_arrays`` methods
(LIF, IF) as each neuron class once wrote them.  Every kind is driven
for several steps (7, and 12 for a longer BPTT chain) through both the
reference and the library neuron, from a fresh state and from a restored
membrane with no previous spikes, and spikes, membranes, BPTT gradients
and spike counters must agree bit for bit.  The library's Eq. 1a is one
autograd node, so this also pins the order in which its gradients meet
the spike path's on the tape.
"""

import numpy as np
import pytest

from repro.snn import (
    AdaptiveLIFNeuron,
    IFNeuron,
    LIFNeuron,
    ParametricLIFNeuron,
    spike_function,
)
from repro.tensor import Tensor

pytestmark = pytest.mark.smoke

STEPS = 7
BATCH, IN, OUT = 4, 3, 5


def _record(neuron, spikes):
    neuron.spike_count += float(spikes.sum())
    neuron.neuron_steps += int(spikes.size)


def lif_forward(neuron, current):
    if neuron.v is None:
        neuron.v = current
    else:
        membrane = neuron.v * neuron.alpha + current
        if neuron.o_prev is not None:
            membrane = membrane - neuron.o_prev * neuron.v_threshold
        neuron.v = membrane
    spikes = spike_function(neuron.v - neuron.v_threshold, neuron.surrogate)
    neuron.o_prev = spikes
    _record(neuron, spikes.data)
    return spikes


def if_forward(neuron, current):
    if neuron.v is None:
        neuron.v = current
    else:
        membrane = neuron.v + current
        if neuron.o_prev is not None:
            membrane = membrane - neuron.o_prev * neuron.v_threshold
        neuron.v = membrane
    spikes = spike_function(neuron.v - neuron.v_threshold, neuron.surrogate)
    neuron.o_prev = spikes
    _record(neuron, spikes.data)
    return spikes


def plif_forward(neuron, current):
    alpha = neuron.decay_logit.sigmoid()
    if neuron.v is None:
        neuron.v = current
    else:
        membrane = neuron.v * alpha + current
        if neuron.o_prev is not None:
            membrane = membrane - neuron.o_prev * neuron.v_threshold
        neuron.v = membrane
    spikes = spike_function(neuron.v - neuron.v_threshold, neuron.surrogate)
    neuron.o_prev = spikes
    _record(neuron, spikes.data)
    return spikes


def alif_forward(neuron, current):
    if neuron.adaptation is None:
        neuron.adaptation = np.zeros(current.shape, dtype=np.float32)
    if neuron.v is None:
        neuron.v = current
    else:
        membrane = neuron.v * neuron.alpha + current
        if neuron.o_prev is not None:
            membrane = membrane - neuron.o_prev * neuron.v_threshold
        neuron.v = membrane
    effective_threshold = neuron.v_threshold + neuron.beta * neuron.adaptation
    spikes = spike_function(neuron.v - Tensor(effective_threshold), neuron.surrogate)
    neuron.adaptation = neuron.rho * neuron.adaptation + spikes.data
    neuron.o_prev = spikes
    _record(neuron, spikes.data)
    return spikes


def lif_forward_arrays(neuron, v, o_prev, current):
    theta = np.float32(neuron.v_threshold)
    if v is None:
        v = current
    else:
        v = v * np.float32(neuron.alpha) + current
        if o_prev is not None:
            v = v - o_prev * theta
    spikes = ((v - theta) >= 0.0).astype(np.float32)
    _record(neuron, spikes)
    return v, spikes


def if_forward_arrays(neuron, v, o_prev, current):
    theta = np.float32(neuron.v_threshold)
    if v is None:
        v = current
    else:
        v = v + current
        if o_prev is not None:
            v = v - o_prev * theta
    spikes = ((v - theta) >= 0.0).astype(np.float32)
    _record(neuron, spikes)
    return v, spikes


KINDS = {
    "lif": (lambda: LIFNeuron(alpha=0.7, v_threshold=0.8), lif_forward, lif_forward_arrays),
    "if": (lambda: IFNeuron(v_threshold=0.8), if_forward, if_forward_arrays),
    "plif": (lambda: ParametricLIFNeuron(init_alpha=0.6, v_threshold=0.8), plif_forward, None),
    "alif": (lambda: AdaptiveLIFNeuron(alpha=0.7, v_threshold=0.8, beta=0.3, rho=0.8),
             alif_forward, None),
}


def _inputs(steps=STEPS):
    rng = np.random.default_rng(7)
    frames = rng.normal(0.0, 1.0, size=(steps, BATCH, IN)).astype(np.float32)
    weight = rng.normal(0.4, 0.6, size=(IN, OUT)).astype(np.float32)
    spike_coef = rng.normal(size=(BATCH, OUT)).astype(np.float32)
    membrane_coef = rng.normal(size=(BATCH, OUT)).astype(np.float32)
    return frames, weight, spike_coef, membrane_coef


def _run(neuron, step, steps=STEPS):
    """Drive ``step`` for ``steps`` steps and backprop a spike + membrane loss."""
    frames, weight, spike_coef, membrane_coef = _inputs(steps)
    x = Tensor(frames, requires_grad=True)
    w = Tensor(weight, requires_grad=True)
    spikes, membranes, loss = [], [], None
    for t in range(steps):
        out = step(neuron, x[t] @ w)
        term = (out * spike_coef).sum() + (neuron.v * membrane_coef).sum()
        loss = term if loss is None else loss + term
        spikes.append(out.data.tobytes())
        membranes.append(neuron.v.data.tobytes())
    loss.backward()
    grads = [x.grad.tobytes(), w.grad.tobytes()]
    if isinstance(neuron, ParametricLIFNeuron):
        grads.append(neuron.decay_logit.grad.tobytes())
    return spikes, membranes, grads, (neuron.spike_count, neuron.neuron_steps)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_forward_matches_reference_bit_for_bit(kind):
    make, reference, _ = KINDS[kind]
    expected = _run(make(), reference)
    actual = _run(make(), lambda neuron, current: neuron(current))
    assert actual[0] == expected[0]  # spikes
    assert actual[1] == expected[1]  # membranes
    assert actual[2] == expected[2]  # input, weight (and PLIF decay) gradients
    assert actual[3] == expected[3]  # spike_count, neuron_steps
    assert any(np.frombuffer(s, np.float32).any() for s in expected[0])
    assert not all(np.frombuffer(s, np.float32).all() for s in expected[0])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_twelve_steps_match_reference_bit_for_bit(kind):
    make, reference, _ = KINDS[kind]
    expected = _run(make(), reference, steps=12)
    assert _run(make(), lambda neuron, current: neuron(current), steps=12) == expected


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_restored_membrane_without_spikes_matches_reference(kind):
    # A restored state with o_prev=None: the first step leaks and
    # integrates a membrane that is not on the tape, with no reset term.
    make, reference, _ = KINDS[kind]
    membrane = np.random.default_rng(3).normal(0.5, 0.5, size=(BATCH, OUT)).astype(np.float32)

    def restored():
        neuron = make()
        state = neuron.snapshot_state()
        state.update(v=membrane, o_prev=None)
        neuron.restore_state(state)
        return neuron

    expected = _run(restored(), reference)
    assert _run(restored(), lambda neuron, current: neuron(current)) == expected


@pytest.mark.parametrize("kind", ["lif", "if"])
def test_forward_arrays_matches_forward_bit_for_bit(kind):
    make, reference, reference_arrays = KINDS[kind]
    frames, weight, _, _ = _inputs()
    currents = [frame @ weight for frame in frames]

    module = make()
    expected = [(module.v.data.tobytes(), spikes.data.tobytes())
                for spikes in (reference(module, Tensor(c)) for c in currents)]

    counted, oracle = make(), make()
    v = o_prev = None
    ref_v = ref_o = None
    for current, (want_v, want_spikes) in zip(currents, expected):
        v, o_prev = counted.forward_arrays(v, o_prev, current)
        counted._record(o_prev)  # a plan counts the spikes forward_arrays returns
        ref_v, ref_o = reference_arrays(oracle, ref_v, ref_o, current)
        assert (v.tobytes(), o_prev.tobytes()) == (want_v, want_spikes)
        assert (ref_v.tobytes(), ref_o.tobytes()) == (want_v, want_spikes)
    assert (counted.spike_count, counted.neuron_steps) == (
        module.spike_count, module.neuron_steps)
    assert counted.v is None and counted.o_prev is None
