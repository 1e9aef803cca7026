"""Spiking neuron models with BPTT-compatible state.

Every neuron runs the paper's Eq. 1, written once in :class:`BaseNeuron`:

    v[t] = alpha * v[t-1] + sum_i w_i s_i[t] - theta * o[t-1]   (1a)
    o[t] = u(v[t] - theta)                                       (1b)

where ``u`` is the Heaviside step.  The subtraction of ``theta * o[t-1]``
is the *soft reset*: a neuron that fired loses one threshold's worth of
potential on the next step.  The Heaviside derivative is replaced by a
surrogate (Eq. 3) during the backward pass, so the whole temporal
unrolling is trainable with BPTT.  Subclasses supply only the decay
``alpha`` (none for IF, learned for PLIF) and, for ALIF, an adaptive
``theta``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn.module import Module, Parameter
from ..tensor import Tensor, is_grad_enabled
from ..tensor.tensor import _unbroadcast
from .surrogate import FastInverse, SurrogateFunction, get_surrogate


def spike_function(v: Tensor, surrogate: SurrogateFunction, threshold=None) -> Tensor:
    """Heaviside forward with surrogate-gradient backward (Eq. 1b).

    ``v`` is the membrane potential and ``threshold`` a float or array
    (``None``: ``v`` is already shifted by it); the spike condition is
    ``v - threshold >= 0``, and the backward hands ``v`` the surrogate of
    that shifted potential.
    """
    shifted = v.data if threshold is None else v.data - np.asarray(threshold, dtype=np.float32)
    spikes = (shifted >= 0.0).astype(np.float32)
    requires = is_grad_enabled() and v.requires_grad
    out = Tensor(spikes, requires_grad=requires, _prev=(v,) if requires else (), _op="spike")

    def backward(grad: np.ndarray) -> None:
        v._accumulate(grad * surrogate(shifted).astype(np.float32, copy=False), owned=True)

    out._backward = backward
    return out


class BaseNeuron(Module):
    """Common state handling and spike accounting for spiking neurons.

    Attributes
    ----------
    spike_count / neuron_steps:
        Detached counters used to compute the average spike rate, which
        feeds the paper's Section IV-C training-cost model.
    """

    def __init__(
        self,
        v_threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
    ) -> None:
        super().__init__()
        self.v_threshold = float(v_threshold)
        self.surrogate = surrogate if surrogate is not None else FastInverse()
        self.v: Optional[Tensor] = None
        self.o_prev: Optional[Tensor] = None
        self.spike_count = 0.0
        self.neuron_steps = 0

    def reset_state(self) -> None:
        """Clear membrane potential and previous output (between samples)."""
        self.v = None
        self.o_prev = None

    def snapshot_state(self) -> Dict[str, Optional[np.ndarray]]:
        """Detached copy of the temporal state (membrane + last output).

        The snapshot is plain arrays, so it can be stored per stream,
        checkpointed, or moved between model instances of the same
        geometry.  Restoring it with :meth:`restore_state` puts the
        neuron exactly where it was — the streaming layer relies on the
        round-trip being bit-exact.  Subclasses with extra temporal
        state (e.g. ALIF's adaptation trace) extend the dict.
        """
        return {
            "v": None if self.v is None else self.v.data.copy(),
            "o_prev": None if self.o_prev is None else self.o_prev.data.copy(),
        }

    def restore_state(self, state: Dict[str, Optional[np.ndarray]]) -> None:
        """Inverse of :meth:`snapshot_state` (state is copied in)."""
        v = state["v"]
        o_prev = state["o_prev"]
        self.v = None if v is None else Tensor(v.copy())
        self.o_prev = None if o_prev is None else Tensor(o_prev.copy())

    def reset_spike_stats(self) -> None:
        """Zero the spike-rate accounting counters."""
        self.spike_count = 0.0
        self.neuron_steps = 0

    def _record(self, spikes: np.ndarray) -> None:
        self.add_spike_counts(float(spikes.sum()), spikes.size)

    def add_spike_counts(self, spikes: float, steps: int) -> None:
        """Add ``spikes`` fired over ``steps`` neuron-steps to the counters.

        Plain counters, written straight into the instance dict past
        ``Module.__setattr__``'s registry checks.
        """
        counters = self.__dict__
        counters["spike_count"] += spikes
        counters["neuron_steps"] += steps

    @property
    def spike_rate(self) -> float:
        """Average spikes per neuron per timestep since the last reset."""
        if self.neuron_steps == 0:
            return 0.0
        return self.spike_count / self.neuron_steps

    # Eq. 1 hooks: a subclass supplies only what differs from IF.
    def _decay(self):
        """The leak ``alpha`` of Eq. 1a (float or Tensor); ``None`` for no leak."""
        return None

    def _threshold(self, shape):
        """Eq. 1b's firing threshold for a step of ``shape`` (float or array)."""
        return self.v_threshold

    def _fired(self, spikes: np.ndarray) -> None:
        """Runs after each step's spikes (ALIF updates its trace here)."""

    def _membrane(self, v, o_prev, current, decay):
        """Eq. 1a on arrays: leak, integrate, soft reset."""
        if v is None:
            return current
        if decay is not None:
            v = v * decay
        v = v + current
        if o_prev is not None:
            v = v - o_prev * self.v_threshold
        return v

    def _membrane_node(self, v, o_prev, current: Tensor, decay) -> Tensor:
        """Eq. 1a as one autograd node: :meth:`_membrane` on the arrays.

        The backward hands each operand the gradient the composed
        ``*``, ``+`` and ``-`` ops handed it, computed the same way.  The
        parents are listed so that the tape is walked in the order those
        ops put it in (reset term, input current, decay, membrane), so
        every gradient that meets another accumulates in the same order.
        """
        if v is None:
            return current
        decay_data = decay.data if isinstance(decay, Tensor) else decay
        o_prev_data = None if o_prev is None else o_prev.data
        data = self._membrane(v.data, o_prev_data, current.data, decay_data)
        parents = tuple(p for p in (v, decay, current, o_prev) if isinstance(p, Tensor))
        out = current._make(data, parents, "membrane")
        if not out.requires_grad:
            return out
        theta = self.v_threshold

        def backward(grad: np.ndarray) -> None:
            if v.requires_grad:
                if decay is None:
                    v._accumulate(grad)
                else:
                    v._accumulate(grad * decay_data, owned=True)
            if isinstance(decay, Tensor) and decay.requires_grad:
                decay._accumulate(_unbroadcast(grad * v.data, decay.shape), owned=True)
            if current.requires_grad:
                current._accumulate(grad)
            if o_prev is not None and o_prev.requires_grad:
                o_prev._accumulate(-grad * theta, owned=True)

        out._backward = backward
        return out

    def forward(self, current: Tensor) -> Tensor:
        threshold = self._threshold(current.shape)
        self.v = self._membrane_node(self.v, self.o_prev, current, self._decay())
        spikes = spike_function(self.v, self.surrogate, threshold)
        self._fired(spikes.data)
        self.o_prev = spikes
        self._record(spikes.data)
        return spikes

    def forward_arrays(self, v, o_prev, current: np.ndarray):
        """:meth:`forward` on plain arrays, for flat execution plans.

        Takes the state ``(v, o_prev)`` explicitly and returns the new
        ``(v, spikes)`` without touching ``self.v``/``self.o_prev``; the
        op order (and so every bit) matches :meth:`forward`.  The spikes
        are not counted here: a :class:`~repro.stream.plan.StreamPlan`
        keeps its own counts and adds them with :meth:`add_spike_counts`.
        """
        threshold = self._threshold(current.shape)
        decay = self._decay()
        if isinstance(decay, Tensor):
            decay = decay.data
        v = self._membrane(v, o_prev, current, decay)
        spikes = ((v - threshold) >= 0.0).astype(np.float32)
        self._fired(spikes)
        return v, spikes


class LIFNeuron(BaseNeuron):
    """Leaky Integrate-and-Fire neuron (paper Eq. 1, soft reset).

    Parameters
    ----------
    alpha:
        Membrane decay factor in ``(0, 1]``.
    v_threshold:
        Firing threshold ``theta``.
    surrogate:
        Pseudo-derivative used in the backward pass; defaults to the
        paper's fast-inverse function (Eq. 3).
    """

    def __init__(
        self,
        alpha: float = 0.5,
        v_threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
    ) -> None:
        super().__init__(v_threshold=v_threshold, surrogate=surrogate)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = float(alpha)

    def _decay(self):
        return self.alpha

    def __repr__(self) -> str:
        return f"LIFNeuron(alpha={self.alpha}, threshold={self.v_threshold})"


class AdaptiveLIFNeuron(LIFNeuron):
    """LIF with spike-triggered threshold adaptation (ALIF).

    The effective threshold is ``theta + beta * a[t]`` where the
    adaptation trace ``a`` integrates past spikes with decay ``rho``:

        a[t] = rho * a[t-1] + o[t-1]

    Neurons that fire often become harder to fire, providing longer
    memory and sparser activity — both useful on neuromorphic targets.
    The trace lives on the module, outside the ``(v, o_prev)`` state
    that :meth:`forward_arrays` takes, so stream plans do not run ALIF.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        v_threshold: float = 1.0,
        beta: float = 0.2,
        rho: float = 0.9,
        surrogate: Optional[SurrogateFunction] = None,
    ) -> None:
        super().__init__(alpha, v_threshold, surrogate)
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if beta < 0.0:
            raise ValueError("beta must be non-negative")
        self.beta = float(beta)
        self.rho = float(rho)
        self.adaptation: Optional[np.ndarray] = None

    def reset_state(self) -> None:
        super().reset_state()
        self.adaptation = None

    def snapshot_state(self):
        state = super().snapshot_state()
        state["adaptation"] = (
            None if self.adaptation is None else self.adaptation.copy()
        )
        return state

    def restore_state(self, state) -> None:
        super().restore_state(state)
        adaptation = state["adaptation"]
        self.adaptation = None if adaptation is None else adaptation.copy()

    def _threshold(self, shape):
        if self.adaptation is None:
            self.adaptation = np.zeros(shape, dtype=np.float32)
        return self.v_threshold + self.beta * self.adaptation

    def _fired(self, spikes: np.ndarray) -> None:
        # The adaptation trace is treated as a constant w.r.t. the tape
        # (standard ALIF practice: no gradient through the threshold).
        self.adaptation = self.rho * self.adaptation + spikes

    def __repr__(self) -> str:
        return (
            f"AdaptiveLIFNeuron(alpha={self.alpha}, beta={self.beta}, "
            f"rho={self.rho}, threshold={self.v_threshold})"
        )


class IFNeuron(BaseNeuron):
    """Integrate-and-Fire neuron: LIF without leak (``alpha = 1``)."""

    def __repr__(self) -> str:
        return f"IFNeuron(threshold={self.v_threshold})"


class ParametricLIFNeuron(BaseNeuron):
    """LIF with a learnable decay (PLIF, Fang et al. ICCV 2021).

    The decay is ``sigmoid(w)`` so it stays in (0, 1) while ``w`` is
    trained by BPTT alongside the synaptic weights.  Included as one of
    the paper's natural extensions (learnable temporal dynamics).
    """

    def __init__(
        self,
        init_alpha: float = 0.5,
        v_threshold: float = 1.0,
        surrogate: Optional[SurrogateFunction] = None,
    ) -> None:
        super().__init__(v_threshold=v_threshold, surrogate=surrogate)
        if not 0.0 < init_alpha < 1.0:
            raise ValueError("init_alpha must lie in (0, 1)")
        logit = np.log(init_alpha / (1.0 - init_alpha)).astype(np.float32)
        self.decay_logit = Parameter(np.array([logit], dtype=np.float32))

    def _decay(self):
        return self.decay_logit.sigmoid()

    def __repr__(self) -> str:
        alpha = float(1.0 / (1.0 + np.exp(-self.decay_logit.data[0])))
        return f"ParametricLIFNeuron(alpha={alpha:.3f}, threshold={self.v_threshold})"


def build_neuron(
    kind: str = "lif",
    alpha: float = 0.5,
    v_threshold: float = 1.0,
    surrogate: Optional[object] = None,
) -> BaseNeuron:
    """Construct a neuron: ``lif`` (default), ``if``, ``plif`` or ``alif``.

    ``alpha`` is the LIF/ALIF decay and PLIF's initial decay; IF has no
    leak and ignores it.  ``surrogate`` may be an instance or a name.
    """
    if isinstance(surrogate, str):
        surrogate = get_surrogate(surrogate)
    if kind == "if":
        return IFNeuron(v_threshold, surrogate)
    leaky = {"lif": LIFNeuron, "plif": ParametricLIFNeuron, "alif": AdaptiveLIFNeuron}
    if kind not in leaky:
        raise ValueError(f"unknown neuron kind {kind!r}; available: ['alif', 'if', 'lif', 'plif']")
    return leaky[kind](alpha, v_threshold, surrogate=surrogate)
