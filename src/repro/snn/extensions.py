"""Extension spiking components beyond the paper's baseline setup.

The paper's future-work direction is energy-efficient SNN training on
edge devices; these components are the standard next steps in that
line and compose with the sparse-training methods unchanged:

* :class:`AdaptiveLIFNeuron` — ALIF with a spike-triggered adaptive
  threshold (longer temporal memory at the same timestep budget).
* :class:`RecurrentSpikingLayer` — explicit recurrent synapses on top
  of a feed-forward projection (RSNN building block).
* :class:`ThresholdDependentBatchNorm2d` — tdBN (Zheng et al., AAAI
  2021), the normalization used by the original ResNet-19 SNN: BN whose
  scale is calibrated to the firing threshold ``alpha * theta``.
* :func:`spike_rate_loss` — activity regularizer pushing the network
  toward a target firing rate (energy control).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import BatchNorm2d, Linear
from ..nn.module import Module
from ..tensor import Tensor
from .neuron import BaseNeuron, LIFNeuron
from .surrogate import SurrogateFunction


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
        track_spikes: bool = True,
    ) -> None:
        super().__init__(alpha, v_threshold, surrogate, track_spikes)
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


class RecurrentSpikingLayer(Module):
    """Fully-connected spiking layer with recurrent synapses.

    Output spikes at step ``t-1`` feed back through a recurrent weight
    matrix, added to the feed-forward current:

        I[t] = W_in x[t] + W_rec o[t-1]

    Both weight matrices are sparsifiable (2-D), so NDSNN prunes the
    recurrent connectivity exactly like the feed-forward one.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        neuron: Optional[BaseNeuron] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.input_proj = Linear(in_features, out_features, rng=rng)
        self.recurrent_proj = Linear(out_features, out_features, bias=False, rng=rng)
        self.neuron = neuron if neuron is not None else LIFNeuron()
        self._last_spikes: Optional[Tensor] = None

    def reset_state(self) -> None:
        self.neuron.reset_state()
        self._last_spikes = None

    def snapshot_state(self):
        # The inner neuron is a registered submodule, so the network
        # walk snapshots it under its own path; only the recurrent
        # feedback buffer belongs to this layer.
        return {
            "last_spikes": (
                None if self._last_spikes is None else self._last_spikes.data.copy()
            )
        }

    def restore_state(self, state) -> None:
        last = state["last_spikes"]
        self._last_spikes = None if last is None else Tensor(last.copy())

    def forward(self, x: Tensor) -> Tensor:
        current = self.input_proj(x)
        if self._last_spikes is not None:
            current = current + self.recurrent_proj(self._last_spikes)
        spikes = self.neuron(current)
        # Detach the recurrent path one step back to bound the tape depth
        # (truncated BPTT through the explicit recurrence).
        self._last_spikes = spikes.detach()
        return spikes


class ThresholdDependentBatchNorm2d(BatchNorm2d):
    """tdBN: batch norm calibrated to the firing threshold.

    Identical to BatchNorm2d except the scale parameter is initialized
    to ``alpha_td * v_threshold`` so pre-activations land in the
    neuron's sensitive region from the first step (Zheng et al. 2021).
    """

    def __init__(
        self,
        num_features: int,
        v_threshold: float = 1.0,
        alpha_td: float = 1.0,
        eps: float = 1e-5,
        momentum: float = 0.1,
    ) -> None:
        super().__init__(num_features, eps=eps, momentum=momentum)
        self.v_threshold = float(v_threshold)
        self.alpha_td = float(alpha_td)
        self.weight.data[:] = alpha_td * v_threshold


def spike_rate_loss(model: Module, target_rate: float = 0.1) -> float:
    """Quadratic penalty between observed and target spike rates.

    Returned as a float (computed from the detached spike counters); add
    it to a scalar loss as a Tensor if a differentiable version is
    needed — here it serves for monitoring/ablation, like the activity
    regularization in the paper's ADMM reference [5].
    """
    from .functional import spike_rate

    observed = spike_rate(model)
    return float((observed - target_rate) ** 2)
