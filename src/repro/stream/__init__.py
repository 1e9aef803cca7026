"""Event-driven streaming inference over sparse spiking models."""

from .encoders import (
    OnlineDirectEncoder,
    OnlineEncoder,
    OnlineLatencyEncoder,
    OnlineRateEncoder,
    build_online_encoder,
)
from .adapt import AdaptiveStreamSession, OnlineAdaptation
from .events import EventStream, ListSource, StreamEvent, StreamSource
from .faults import StreamFaultInjector
from .session import RejectedEvent, StreamResult, StreamSession, WindowHookError

__all__ = [
    "StreamEvent",
    "StreamSource",
    "ListSource",
    "EventStream",
    "OnlineEncoder",
    "OnlineDirectEncoder",
    "OnlineRateEncoder",
    "OnlineLatencyEncoder",
    "build_online_encoder",
    "StreamSession",
    "StreamResult",
    "RejectedEvent",
    "WindowHookError",
    "AdaptiveStreamSession",
    "OnlineAdaptation",
    "StreamFaultInjector",
]
