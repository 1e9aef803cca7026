"""Network-level utilities for stateful spiking models.

Neurons are the only modules with temporal state, so every walk here is
one walk over the :class:`~repro.snn.neuron.BaseNeuron` modules.
"""

from __future__ import annotations

from typing import Dict

from ..nn.module import Module
from .neuron import BaseNeuron


def _neurons(model: Module):
    """(path, neuron) pairs of every spiking neuron in ``model``."""
    for name, module in model.named_modules():
        if isinstance(module, BaseNeuron):
            yield name, module


def reset_net(model: Module) -> None:
    """Reset the membrane state of every spiking neuron in ``model``.

    Must be called between independent input samples (the spiking state
    is part of the computation graph and must not leak across batches).
    """
    for _, neuron in _neurons(model):
        neuron.reset_state()


def snapshot_net_state(model: Module) -> Dict[str, Dict]:
    """Detached copy of every neuron's temporal state.

    Keys are module paths (as in ``named_modules``), values the dicts
    returned by each neuron's ``snapshot_state``.  The streaming layer
    stores one snapshot per stream and swaps them in and out of a
    single model instance; the round-trip through
    :func:`restore_net_state` is bit-exact.
    """
    return {name: neuron.snapshot_state() for name, neuron in _neurons(model)}


def restore_net_state(model: Module, state: Dict[str, Dict]) -> None:
    """Inverse of :func:`snapshot_net_state`.

    The snapshot must cover exactly the model's neurons — a mismatch
    means the snapshot came from a different architecture and restoring
    it silently would corrupt inference.
    """
    neurons = dict(_neurons(model))
    if set(neurons) != set(state):
        missing = sorted(set(neurons) - set(state))
        extra = sorted(set(state) - set(neurons))
        raise ValueError(
            f"state snapshot does not match model: missing {missing}, "
            f"unexpected {extra}"
        )
    for name, neuron in neurons.items():
        neuron.restore_state(state[name])


def reset_spike_stats(model: Module) -> None:
    """Zero spike-rate counters of every neuron in ``model``."""
    for _, neuron in _neurons(model):
        neuron.reset_spike_stats()


def spike_rate(model: Module) -> float:
    """Average spikes per neuron per timestep across the whole network.

    This is the quantity ``R`` used in the paper's Section IV-C training
    cost formula ``cost_i = (R_s^i * density_i) / R_d^i``.
    """
    total_spikes = 0.0
    total_steps = 0
    for _, neuron in _neurons(model):
        total_spikes += neuron.spike_count
        total_steps += neuron.neuron_steps
    if total_steps == 0:
        return 0.0
    return total_spikes / total_steps


def spike_rates_per_layer(model: Module) -> Dict[str, float]:
    """Per-neuron-layer spike rate, keyed by module path."""
    return {name or neuron.__class__.__name__: neuron.spike_rate
            for name, neuron in _neurons(model)}
