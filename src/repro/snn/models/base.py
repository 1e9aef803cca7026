"""Base class shared by the spiking model zoo.

A spiking model wraps a stateful backbone in a temporal loop: the input
is presented for ``T`` timesteps (direct encoding by default), the
backbone produces per-timestep logits, and the classifier output is the
mean of those logits — the standard readout for directly-trained
CIFAR-scale SNNs and the one the paper's SpikingJelly substrate uses.
"""

from __future__ import annotations

from typing import Optional

from ...nn.module import Module
from ...tensor import Tensor
from ..encoding import DirectEncoder
from ..functional import reset_net


def scaled_width(channels: int, width_mult: float, minimum: int = 4) -> int:
    """Scale a channel count by ``width_mult`` with a floor of ``minimum``."""
    return max(minimum, int(round(channels * width_mult)))


class SpikingModel(Module):
    """Temporal wrapper: runs the stateful backbone for ``timesteps``.

    Subclasses implement :meth:`forward_once` (a single-timestep pass)
    and inherit the temporal averaging readout.
    """

    def __init__(self, timesteps: int = 5) -> None:
        super().__init__()
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        self.timesteps = timesteps
        self.encoder = DirectEncoder(timesteps)

    def forward_once(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        return self.forward_window(self.encoder(x))

    def forward_window(self, frames) -> Tensor:
        """The temporal loop: reset, then average ``forward_once`` over ``frames``.

        :meth:`forward` drives it with the encoder; the streaming layer
        drives it with an explicit frame sequence to prove its
        incremental execution bit-identical to a batch pass over the
        same window.  ``frames`` is consumed lazily, so a stochastic
        encoder's draws interleave with the timesteps.
        """
        reset_net(self)
        accumulated: Optional[Tensor] = None
        count = 0
        for frame in frames:
            logits = self.forward_once(frame)
            accumulated = logits if accumulated is None else accumulated + logits
            count += 1
        if not count:
            raise ValueError("forward_window requires at least one frame")
        return accumulated * (1.0 / count)


def flattened_spatial(image_size: int, num_halvings: int) -> int:
    """Spatial edge length after ``num_halvings`` stride-2 reductions."""
    size = image_size
    for _ in range(num_halvings):
        size = max(1, size // 2)
    return size
