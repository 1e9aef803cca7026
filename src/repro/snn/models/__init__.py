"""Spiking model zoo with a string registry for the experiment layer."""

from typing import Dict, Type

from .base import SpikingModel, flattened_spatial, scaled_width
from .lenet import SpikingLeNet5
from .resnet import SpikingBasicBlock, SpikingResNet19
from .small import SpikingConvNet, SpikingMLP
from .vgg import SpikingVGG, SpikingVGG9, SpikingVGG11, SpikingVGG16

MODEL_REGISTRY: Dict[str, Type[SpikingModel]] = {
    "vgg16": SpikingVGG16,
    "vgg11": SpikingVGG11,
    "vgg9": SpikingVGG9,
    "resnet19": SpikingResNet19,
    "lenet5": SpikingLeNet5,
    "convnet": SpikingConvNet,
}


def build_model(name: str, **kwargs) -> SpikingModel:
    """Instantiate a zoo model by name.

    >>> model = build_model("vgg16", num_classes=10, width_mult=0.125)
    """
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "SpikingModel",
    "SpikingVGG",
    "SpikingVGG16",
    "SpikingVGG11",
    "SpikingVGG9",
    "SpikingResNet19",
    "SpikingBasicBlock",
    "SpikingLeNet5",
    "SpikingMLP",
    "SpikingConvNet",
    "MODEL_REGISTRY",
    "build_model",
    "scaled_width",
    "flattened_spatial",
]
