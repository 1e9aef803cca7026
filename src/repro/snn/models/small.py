"""Small scalable spiking models for tests, examples and fast benches."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...nn import AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, Sequential
from ...tensor import Tensor
from ..neuron import build_neuron
from .base import SpikingModel, flattened_spatial


class SpikingMLP(SpikingModel):
    """Fully-connected spiking network for flat inputs."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: Sequence[int] = (64,),
        timesteps: int = 4,
        neuron_alpha: float = 0.5,
        neuron_kind: str = "lif",
        v_threshold: float = 1.0,
        surrogate: Optional[object] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(timesteps=timesteps)
        layers = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate))
            previous = width
        self.body = Sequential(*layers)
        self.head = Linear(previous, num_classes, rng=rng)

    def forward_once(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.head(self.body(x))


class SpikingConvNet(SpikingModel):
    """Compact conv-pool spiking network, the workhorse of the test suite.

    ``channels`` gives the output width of each 3x3 conv stage; a 2x2
    average pool follows each stage.
    """

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        image_size: int = 16,
        channels: Sequence[int] = (16, 32),
        timesteps: int = 4,
        neuron_alpha: float = 0.5,
        neuron_kind: str = "lif",
        v_threshold: float = 1.0,
        surrogate: Optional[object] = None,
        batch_norm: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(timesteps=timesteps)
        layers = []
        previous = in_channels
        for width in channels:
            layers.append(Conv2d(previous, width, 3, padding=1, bias=not batch_norm, rng=rng))
            if batch_norm:
                layers.append(BatchNorm2d(width))
            layers.append(build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate))
            layers.append(AvgPool2d(2))
            previous = width
        self.features = Sequential(*layers)
        self.flatten = Flatten()
        spatial = flattened_spatial(image_size, len(channels))
        self.classifier = Linear(previous * spatial * spatial, num_classes, rng=rng)

    def forward_once(self, x: Tensor) -> Tensor:
        return self.classifier(self.flatten(self.features(x)))
