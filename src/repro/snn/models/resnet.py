"""Spiking ResNet-19.

ResNet-19 is the SNN-literature variant introduced for directly-trained
SNNs (Zheng et al., "Going Deeper with Directly-Trained Larger Spiking
Neural Networks"), the paper's second evaluation architecture:

    conv3x3(128) -> 3 basic blocks @128 -> 3 @256 (stride 2)
    -> 2 @512 (stride 2) -> global avgpool -> fc(256) -> fc(classes)

counting 1 + 2*(3+3+2) + 2 = 19 weighted layers.  Residual addition
happens on membrane currents before the output LIF of each block.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...nn import AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, Flatten, Identity, Linear, Sequential
from ...nn.module import Module
from ...tensor import Tensor
from ..neuron import build_neuron
from .base import SpikingModel, flattened_spatial, scaled_width


class SpikingBasicBlock(Module):
    """Two 3x3 conv-BN stages with a residual shortcut and LIF output."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        neuron_alpha: float = 0.5,
        neuron_kind: str = "lif",
        v_threshold: float = 1.0,
        surrogate: Optional[object] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.neuron1 = build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()
        self.neuron2 = build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate)

    def forward(self, x: Tensor) -> Tensor:
        out = self.neuron1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = out + self.shortcut(x)
        return self.neuron2(out)


class SpikingResNet19(SpikingModel):
    """Spiking ResNet-19 (paper's second evaluation architecture)."""

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
        hidden_dim: int = 256,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(timesteps=timesteps)
        widths = [scaled_width(c, width_mult) for c in (128, 256, 512)]
        hidden = scaled_width(hidden_dim, width_mult, minimum=8)
        neuron_kwargs = dict(
            neuron_alpha=neuron_alpha,
            neuron_kind=neuron_kind,
            v_threshold=v_threshold,
            surrogate=surrogate,
            rng=rng,
        )

        self.conv1 = Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(widths[0])
        self.neuron1 = build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate)
        self.layer1 = self._make_stage(widths[0], widths[0], blocks=3, stride=1, **neuron_kwargs)
        self.layer2 = self._make_stage(widths[0], widths[1], blocks=3, stride=2, **neuron_kwargs)
        self.layer3 = self._make_stage(widths[1], widths[2], blocks=2, stride=2, **neuron_kwargs)

        spatial = flattened_spatial(image_size, 2)
        self.pool = AvgPool2d(spatial)
        self.flatten = Flatten()
        self.fc1 = Linear(widths[2], hidden, rng=rng)
        # Normalize the head's membrane input: spike counts shrink after
        # global pooling, and without BN the readout neuron goes silent.
        self.bn_fc = BatchNorm1d(hidden)
        self.neuron_fc = build_neuron(neuron_kind, neuron_alpha, v_threshold, surrogate)
        self.fc2 = Linear(hidden, num_classes, rng=rng)

    @staticmethod
    def _make_stage(
        in_channels: int,
        out_channels: int,
        blocks: int,
        stride: int,
        **neuron_kwargs,
    ) -> Sequential:
        stages: List[Module] = [
            SpikingBasicBlock(in_channels, out_channels, stride=stride, **neuron_kwargs)
        ]
        for _ in range(blocks - 1):
            stages.append(SpikingBasicBlock(out_channels, out_channels, stride=1, **neuron_kwargs))
        return Sequential(*stages)

    def forward_once(self, x: Tensor) -> Tensor:
        out = self.neuron1(self.bn1(self.conv1(x)))
        out = self.layer1(out)
        out = self.layer2(out)
        out = self.layer3(out)
        out = self.flatten(self.pool(out))
        out = self.neuron_fc(self.bn_fc(self.fc1(out)))
        return self.fc2(out)
