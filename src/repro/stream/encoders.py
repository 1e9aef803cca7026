"""Online (per-event) encoders for streaming inference.

The offline encoders in :mod:`repro.snn.encoding` expand one sample
into ``T`` frames; in a stream each arriving event *is* one timestep,
so an online encoder maps one channel vector to one frame, carrying
whatever per-stream state it needs (RNG stream, window phase) in a
plain dict the session snapshots alongside the neuron state.

All encoder state lives in the per-stream ``state`` dict — the encoder
object itself is stateless and shared across streams — so snapshots of
a stream capture everything needed to replay it bit-exactly.
"""

from __future__ import annotations

import copy
from typing import Dict

import numpy as np

from ..utils import stream_seed


class OnlineEncoder:
    """Maps one event's channel vector to one input frame."""

    def init_state(self, stream_id: str) -> Dict:
        """Fresh per-stream encoder state (empty by default)."""
        return {}

    def encode(self, channels: np.ndarray, state: Dict) -> np.ndarray:
        """One ``(C,)`` float32 frame; may mutate ``state`` in place."""
        raise NotImplementedError

    @staticmethod
    def copy_state(state: Dict) -> Dict:
        """Detached deep copy (RNG states are nested dicts)."""
        return copy.deepcopy(state)


class OnlineDirectEncoder(OnlineEncoder):
    """Constant-current: the reading itself is the input frame."""

    def encode(self, channels: np.ndarray, state: Dict) -> np.ndarray:
        return np.asarray(channels, dtype=np.float32)

    def __repr__(self) -> str:
        return "OnlineDirectEncoder()"


class OnlineRateEncoder(OnlineEncoder):
    """Streaming Poisson rate coding.

    Each event emits a Bernoulli spike frame with per-channel firing
    probability equal to the reading.  The per-stream RNG is derived
    from ``(seed, stream_id)`` and its state rides in the stream
    snapshot, so replays and crash-resumes are bit-identical.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def init_state(self, stream_id: str) -> Dict:
        rng = np.random.default_rng(stream_seed(self.seed, stream_id))
        return {"rng": rng.bit_generator.state}

    def encode(self, channels: np.ndarray, state: Dict) -> np.ndarray:
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng"]
        probabilities = np.clip(np.asarray(channels, dtype=np.float32), 0.0, 1.0)
        frame = (rng.random(probabilities.shape) < probabilities).astype(np.float32)
        state["rng"] = rng.bit_generator.state
        return frame

    def __repr__(self) -> str:
        return f"OnlineRateEncoder(seed={self.seed})"


class OnlineLatencyEncoder(OnlineEncoder):
    """Streaming time-to-first-spike coding over a window phase.

    A channel reading ``x`` fires on the window phase closest to
    ``(1 - x) * (window - 1)`` — brighter earlier, like the offline
    :class:`~repro.snn.encoding.LatencyEncoder`, but evaluated against
    each event's own reading at the event's position in the window.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)

    def init_state(self, stream_id: str) -> Dict:
        return {"phase": 0}

    def encode(self, channels: np.ndarray, state: Dict) -> np.ndarray:
        intensity = np.clip(np.asarray(channels, dtype=np.float32), 0.0, 1.0)
        fire_step = np.rint((1.0 - intensity) * (self.window - 1)).astype(np.int64)
        frame = (fire_step == state["phase"]).astype(np.float32)
        state["phase"] = (state["phase"] + 1) % self.window
        return frame

    def __repr__(self) -> str:
        return f"OnlineLatencyEncoder(window={self.window})"


def build_online_encoder(name: str, window: int, seed: int = 0) -> OnlineEncoder:
    """Factory: ``direct``, ``rate`` or ``latency``."""
    if name == "direct":
        return OnlineDirectEncoder()
    if name == "rate":
        return OnlineRateEncoder(seed=seed)
    if name == "latency":
        return OnlineLatencyEncoder(window=window)
    raise ValueError(
        f"unknown online encoder {name!r}; available: ['direct', 'latency', 'rate']"
    )
