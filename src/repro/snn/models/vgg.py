"""Spiking VGG-16 (and the scalable VGG family).

Layer inventory follows the standard VGG-16 configuration "D":
``64 64 M 128 128 M 256 256 256 M 512 512 512 M 512 512 512 M``
with BatchNorm after each convolution and a LIF neuron as activation.
The classifier is a single linear readout, the usual choice for
directly-trained CIFAR-scale spiking VGGs.

``width_mult`` scales every channel count so the same topology can be
trained on CPU in the benchmark harness; ERK sparsity allocation sees
the same *relative* layer-shape structure at any width.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ...nn import AvgPool2d, BatchNorm2d, Conv2d, Dropout, Flatten, Linear, Sequential
from ...tensor import Tensor
from ..neuron import build_neuron
from .base import SpikingModel, scaled_width

VGG16_CONFIG: List[Union[int, str]] = [
    64, 64, "M",
    128, 128, "M",
    256, 256, 256, "M",
    512, 512, 512, "M",
    512, 512, 512, "M",
]

VGG11_CONFIG: List[Union[int, str]] = [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"]

VGG9_CONFIG: List[Union[int, str]] = [64, 64, "M", 128, 128, "M", 256, 256, "M"]


class SpikingVGG(SpikingModel):
    """Generic spiking VGG built from a channel configuration list."""

    def __init__(
        self,
        config: Sequence[Union[int, str]],
        num_classes: int = 10,
        in_channels: int = 3,
        image_size: int = 32,
        timesteps: int = 5,
        width_mult: float = 1.0,
        neuron_alpha: float = 0.5,
        neuron_kind: str = "lif",
        v_threshold: float = 1.0,
        surrogate: Optional[object] = None,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(timesteps=timesteps)
        layers = []
        channels = in_channels
        spatial = image_size
        for item in config:
            if item == "M":
                # At low benchmark resolutions the deep pools would shrink
                # the map below 1x1; skip them once spatial size bottoms out.
                if spatial >= 2:
                    layers.append(AvgPool2d(2))
                    spatial //= 2
                continue
            out_channels = scaled_width(int(item), width_mult)
            layers.append(Conv2d(channels, out_channels, kernel_size=3, padding=1, bias=False, rng=rng))
            layers.append(BatchNorm2d(out_channels))
            layers.append(build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate))
            channels = out_channels
        self.features = Sequential(*layers)
        self.flatten = Flatten()
        feature_dim = channels * spatial * spatial
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None
        self.classifier = Linear(feature_dim, num_classes, rng=rng)

    def forward_once(self, x: Tensor) -> Tensor:
        out = self.features(x)
        out = self.flatten(out)
        if self.dropout is not None:
            out = self.dropout(out)
        return self.classifier(out)


class SpikingVGG16(SpikingVGG):
    """Spiking VGG-16 (paper's first evaluation architecture)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(VGG16_CONFIG, **kwargs)


class SpikingVGG11(SpikingVGG):
    """Spiking VGG-11 (extension architecture)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(VGG11_CONFIG, **kwargs)


class SpikingVGG9(SpikingVGG):
    """Compact spiking VGG-9, useful for fast CPU experiments."""

    def __init__(self, **kwargs) -> None:
        super().__init__(VGG9_CONFIG, **kwargs)
