"""Spiking neural network substrate: neurons, surrogates, encoders, models."""

from .encoding import DirectEncoder, LatencyEncoder, PoissonEncoder, build_encoder
from .functional import (
    reset_net,
    reset_spike_stats,
    spike_rate,
    spike_rates_per_layer,
)
from .neuron import (
    AdaptiveLIFNeuron,
    BaseNeuron,
    IFNeuron,
    LIFNeuron,
    ParametricLIFNeuron,
    build_neuron,
    spike_function,
)
from .surrogate import (
    ATan,
    FastInverse,
    SigmoidSurrogate,
    StraightThrough,
    SurrogateFunction,
    Triangle,
    available_surrogates,
    get_surrogate,
)

__all__ = [
    "AdaptiveLIFNeuron",
    "LIFNeuron",
    "IFNeuron",
    "ParametricLIFNeuron",
    "BaseNeuron",
    "build_neuron",
    "spike_function",
    "SurrogateFunction",
    "FastInverse",
    "ATan",
    "SigmoidSurrogate",
    "Triangle",
    "StraightThrough",
    "get_surrogate",
    "available_surrogates",
    "DirectEncoder",
    "PoissonEncoder",
    "LatencyEncoder",
    "build_encoder",
    "reset_net",
    "reset_spike_stats",
    "spike_rate",
    "spike_rates_per_layer",
]
