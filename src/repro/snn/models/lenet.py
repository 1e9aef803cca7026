"""Spiking LeNet-5 (used in the Table II ADMM comparison)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...nn import AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear
from ...tensor import Tensor
from ..neuron import build_neuron
from .base import SpikingModel, scaled_width


class SpikingLeNet5(SpikingModel):
    """Classic LeNet-5 topology with LIF activations.

    conv5x5(6) -> pool -> conv5x5(16) -> pool -> fc(120) -> fc(84) -> fc(K)
    """

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        image_size: int = 32,
        timesteps: int = 5,
        width_mult: float = 1.0,
        neuron_alpha: float = 0.5,
        neuron_kind: str = "lif",
        v_threshold: float = 1.0,
        surrogate: Optional[object] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(timesteps=timesteps)
        c1 = scaled_width(6, width_mult)
        c2 = scaled_width(16, width_mult)
        f1 = scaled_width(120, width_mult, minimum=8)
        f2 = scaled_width(84, width_mult, minimum=8)
        neuron = lambda: build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate)  # noqa: E731

        self.conv1 = Conv2d(in_channels, c1, 5, padding=2, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(c1)
        self.neuron1 = neuron()
        self.pool1 = AvgPool2d(2)
        self.conv2 = Conv2d(c1, c2, 5, padding=2, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(c2)
        self.neuron2 = neuron()
        self.pool2 = AvgPool2d(2)
        self.flatten = Flatten()
        spatial = image_size // 4
        self.fc1 = Linear(c2 * spatial * spatial, f1, rng=rng)
        self.neuron3 = neuron()
        self.fc2 = Linear(f1, f2, rng=rng)
        self.neuron4 = neuron()
        self.fc3 = Linear(f2, num_classes, rng=rng)

    def forward_once(self, x: Tensor) -> Tensor:
        out = self.pool1(self.neuron1(self.bn1(self.conv1(x))))
        out = self.pool2(self.neuron2(self.bn2(self.conv2(out))))
        out = self.flatten(out)
        out = self.neuron3(self.fc1(out))
        out = self.neuron4(self.fc2(out))
        return self.fc3(out)
