"""Stateful per-stream inference sessions.

A :class:`StreamSession` runs one spiking model over a multiplexed
event feed, holding persistent neuron membrane state *per stream*: each
arriving event is one timestep for its stream, and state is swapped in
and out of the shared model instance around every ``forward_once``.

Windowing — the readout is emitted per window of ``window`` events:

* ``stride == window`` (tumbling, the default): neuron state carries
  across events *within* a window and resets at the boundary.  Each
  event costs exactly one ``forward_once``.
* ``stride < window`` (sliding): consecutive windows overlap.  On
  emission the session replays the retained tail of buffered *encoded*
  frames from a fresh reset, so every emitted window is exactly the
  offline pass over its frames.

Either way the emitted logits are **bit-identical** to
``model.forward_window(frames)`` over the same encoded frames: the
incremental accumulator uses the same op order (plain float32 adds,
then one scale by ``1/len``) as the offline loop, and the state
snapshot/restore round-trip is exact.

Execution: a frozen session whose ``forward_once`` is a straight chain
of ``Linear`` layers and LIF/IF neurons is compiled once, at
construction, into a flat :class:`~repro.stream.plan.StreamPlan` that
runs events as plain numpy over per-stream state arrays, without
touching the module tree.  :meth:`StreamSession.process_many` takes at
most one event per stream and runs them all as **one** plan step over
the streams' stacked states, so a server shard with 16 busy streams
walks the plan once and makes one CSR kernel call per layer, not 16;
every row is bit-equal to stepping its stream alone.  The plan fixes
only the chain of layers: every step reads each layer's route, CSR
pattern and values, so a manager thawed, edited and re-frozen after
construction is run exactly as ``offline_reference`` runs it.  Anything
else (a manager thawed at construction, other neuron or layer types)
runs the module path: per-stream state is swapped into the shared model
around every ``forward_once``, one event at a time.
``session.execution`` says which, and why.

Fault tolerance: processing is transactional — per-stream state only
commits once every event of a ``process_many`` call has fully
processed, so a worker crash mid-call costs a retry of the whole call,
never corrupted state.  A malformed event (a width that does not fit
its stream or the plan) is rejected on its own with a
:class:`RejectedEvent` (a ``ValueError``) before anything steps.  Stale
streams (event-time gap beyond ``ttl``) are reset (or carried, per
``reset_policy``) instead of poisoning the readout with decayed
membranes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..snn.functional import reset_net, restore_net_state, snapshot_net_state
from ..tensor import Tensor, no_grad
from .encoders import OnlineEncoder, build_online_encoder
from .events import StreamEvent
from .plan import compile_plan


@dataclass(frozen=True)
class StreamResult:
    """One emitted window readout for one stream."""

    stream_id: str
    timestamp: float
    logits: np.ndarray = field(repr=False)
    window_index: int
    events_in_window: int
    frames: Tuple[np.ndarray, ...] = field(repr=False)
    partial: bool = False

    @property
    def prediction(self) -> int:
        return int(np.argmax(self.logits))


class RejectedEvent(ValueError):
    """A malformed event, refused before anything stepped: its width
    differs from its stream's recorded width or from the plan's."""


class _StreamState:
    """Everything one stream carries between events."""

    __slots__ = (
        "net_state", "encoder_state", "frames", "acc", "count",
        "last_event_time", "events", "windows", "stale_resets",
        "num_channels",
    )

    def __init__(self, encoder_state: Dict, num_channels: int) -> None:
        # Neuron state in the executor's format (plan tuple or module
        # snapshot dict); ``None`` means freshly reset.
        self.net_state = None
        self.encoder_state = encoder_state
        self.frames: List[np.ndarray] = []
        self.acc: Optional[np.ndarray] = None
        self.count = 0
        self.last_event_time: Optional[float] = None
        self.events = 0
        self.windows = 0
        self.stale_resets = 0
        self.num_channels = num_channels

    def clone(self, encoder: OnlineEncoder) -> "_StreamState":
        copy = _StreamState(encoder.copy_state(self.encoder_state), self.num_channels)
        # net_state, frames entries and acc are arrays that processing
        # replaces but never mutates in place, so sharing them is safe.
        copy.net_state = self.net_state
        copy.frames = list(self.frames)
        copy.acc = self.acc
        copy.count = self.count
        copy.last_event_time = self.last_event_time
        copy.events = self.events
        copy.windows = self.windows
        copy.stale_resets = self.stale_resets
        return copy

    def reset_window(self) -> None:
        self.net_state = None
        self.frames = []
        self.acc = None
        self.count = 0


class StreamSession:
    """Sliding-window sparse inference with per-stream neuron state.

    Parameters
    ----------
    model:
        A :class:`~repro.snn.models.base.SpikingModel`; put to eval
        mode on construction.  The session owns its temporal state —
        callers must not run the model concurrently.
    window:
        Events per readout window.
    stride:
        Events between consecutive readouts (default ``window`` =
        tumbling windows).
    encoder:
        Online encoder name (``direct``/``rate``/``latency``) or an
        :class:`~repro.stream.encoders.OnlineEncoder` instance.
    manager:
        Optional :class:`~repro.sparse.engine.SparsityManager` bound to
        the model.  When given it must already be frozen — streaming
        inference runs over frozen CSR sessions; use
        :class:`~repro.stream.adapt.AdaptiveStreamSession` for the
        thawed, continually-adapting variant.
    ttl:
        Event-time staleness bound in seconds.  A stream whose
        inter-event gap exceeds it is handled per ``reset_policy``.
    reset_policy:
        ``"reset"`` (default) drops the stale window and starts fresh;
        ``"carry"`` keeps the decayed state (monitoring only — the
        stale counter still increments).
    seed:
        Seed forwarded to the online encoder factory when ``encoder``
        is a name.
    """

    requires_frozen = True

    def __init__(
        self,
        model,
        window: int = 8,
        stride: Optional[int] = None,
        encoder: str = "direct",
        manager=None,
        ttl: Optional[float] = None,
        reset_policy: str = "reset",
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        stride = window if stride is None else int(stride)
        if not 1 <= stride <= window:
            raise ValueError("stride must lie in [1, window]")
        if reset_policy not in ("reset", "carry"):
            raise ValueError("reset_policy must be 'reset' or 'carry'")
        if ttl is not None and ttl <= 0.0:
            raise ValueError("ttl must be positive")
        self.model = model
        self.window = int(window)
        self.stride = stride
        self.manager = manager
        self.ttl = ttl
        self.reset_policy = reset_policy
        if isinstance(encoder, OnlineEncoder):
            self.encoder = encoder
        else:
            self.encoder = build_online_encoder(encoder, window=self.window, seed=seed)
        model.eval()
        if manager is not None:
            self._check_manager(manager)
        self._plan, self._fallback_reason = compile_plan(model, manager)
        self._states: Dict[str, _StreamState] = {}

    @property
    def execution(self) -> str:
        """``"plan"``, or ``"modules: <reason>"`` when no plan compiled."""
        if self._plan is not None:
            return "plan"
        return f"modules: {self._fallback_reason}"

    def _check_manager(self, manager) -> None:
        if self.requires_frozen and not manager.frozen:
            raise ValueError(
                "StreamSession requires a frozen SparsityManager (call "
                "manager.freeze()); use AdaptiveStreamSession for online "
                "mask adaptation"
            )

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: StreamEvent) -> Optional[StreamResult]:
        """Advance one stream by one event; a result when a window closes.

        Transactional: on exception the stream's committed state is
        unchanged, so the caller can safely retry the same event.  A
        malformed event raises its :class:`RejectedEvent` (see
        :meth:`process_many`).
        """
        output = self.process_many([event])[0]
        if isinstance(output, RejectedEvent):
            raise output
        return output

    def process_many(self, events: List[StreamEvent]) -> List[object]:
        """Advance each event's stream by that event: one output per event.

        The events must belong to distinct streams.  An output is the
        event's :class:`StreamResult`, ``None`` when no window closed, or
        the :class:`RejectedEvent` refusing a malformed event: one whose
        width differs from its stream's recorded width or from the plan's
        input width.  A rejected event leaves its stream untouched.

        A plan session runs the accepted events as one plan step over
        their stacked states; a module-path session steps them one at a
        time.  Transactional: no stream commits until every step has
        returned, so on exception every committed state is unchanged and
        the caller can safely retry all the events.
        """
        if len(events) > 1 and len({event.stream_id for event in events}) < len(events):
            raise ValueError("process_many takes at most one event per stream")
        outputs: List[object] = []
        staged = []  # (output slot, event, working state, encoded frame)
        for event in events:
            try:
                state = self._begin(event)
            except RejectedEvent as error:
                outputs.append(error)
                continue
            frame = self.encoder.encode(event.channels, state.encoder_state)
            staged.append((len(outputs), event, state, np.asarray(frame, dtype=np.float32)[None, :]))
            outputs.append(None)
        if self._plan is not None and len(staged) > 1:
            # One plan step over the stacked streams; each row is
            # bit-equal to stepping its stream alone.
            frames = np.concatenate([frame for _, _, _, frame in staged])
            logits, stacked = self._step(
                self._plan.stack([state.net_state for _, _, state, _ in staged]), frames)
            self._after_step(frames)
            rows = self._plan.split(stacked, len(staged))
            for row, (slot, event, state, frame) in enumerate(staged):
                state.net_state = rows[row]
                outputs[slot] = self._append(state, event, frame, logits[row:row + 1])
        else:
            for slot, event, state, frame in staged:
                logits, state.net_state = self._step(state.net_state, frame)
                self._after_step(frame)
                outputs[slot] = self._append(state, event, frame, logits)
        for _, event, state, _ in staged:
            self._states[event.stream_id] = state
        for output in outputs:
            if isinstance(output, StreamResult):
                self._after_window(output)
        return outputs

    def _begin(self, event: StreamEvent) -> _StreamState:
        """A working copy of the event's stream state, staleness applied.

        Raises :class:`RejectedEvent` for an event whose width differs
        from its stream's recorded width or from the plan's input width.
        """
        width = event.num_channels
        stored = self._states.get(event.stream_id)
        if stored is not None and width != stored.num_channels:
            raise RejectedEvent(
                f"stream {event.stream_id!r} changed width: "
                f"{stored.num_channels} -> {width}"
            )
        if self._plan is not None and width != self._plan.in_features:
            raise RejectedEvent(
                f"stream {event.stream_id!r} sent {width} channels; "
                f"the plan takes {self._plan.in_features}"
            )
        if stored is None:
            state = _StreamState(self.encoder.init_state(event.stream_id), width)
        else:
            state = stored.clone(self.encoder)
        stale = (
            self.ttl is not None
            and state.last_event_time is not None
            and event.timestamp - state.last_event_time > self.ttl
        )
        if stale:
            state.stale_resets += 1
            if self.reset_policy == "reset":
                state.reset_window()
        return state

    def _append(
        self, state: _StreamState, event: StreamEvent, frame: np.ndarray, logits: np.ndarray
    ) -> Optional[StreamResult]:
        """Add one stepped event to ``state``; a result when its window closes."""
        state.frames.append(frame)
        state.acc = logits.copy() if state.acc is None else state.acc + logits
        state.count += 1
        state.events += 1
        state.last_event_time = float(event.timestamp)
        if state.count < self.window:
            return None
        result = StreamResult(
            stream_id=event.stream_id,
            timestamp=float(event.timestamp),
            logits=(state.acc * np.float32(1.0 / self.window))[0],
            window_index=state.windows,
            events_in_window=self.window,
            frames=tuple(state.frames),
        )
        state.windows += 1
        self._advance(state)
        return result

    def _after_step(self, frame: np.ndarray) -> None:
        """Hook: a step over ``frame`` just ran (one event's row on the
        module path, where the model's neuron state is still live for it;
        a plan step's rows may stack several streams)."""

    def _after_window(self, result: StreamResult) -> None:
        """Hook: a window readout was just committed."""

    def _step(self, net_state, frame: np.ndarray) -> Tuple[np.ndarray, object]:
        """One timestep from ``net_state``: ``(logits, next_net_state)``."""
        if self._plan is not None:
            return self._plan.step(net_state, frame)
        if net_state is None:
            reset_net(self.model)
        else:
            restore_net_state(self.model, net_state)
        with no_grad():
            out = self.model.forward_once(Tensor(frame))
        return out.data, snapshot_net_state(self.model)

    def _advance(self, state: _StreamState) -> None:
        """Slide the window forward after an emission."""
        if self.stride >= self.window:
            state.reset_window()
            return
        # Sliding: replay the retained tail from a fresh reset so the
        # next window's prefix is exactly an offline pass over it.
        tail = state.frames[self.stride:]
        state.reset_window()
        for frame in tail:
            logits, state.net_state = self._step(state.net_state, frame)
            state.frames.append(frame)
            state.acc = logits.copy() if state.acc is None else state.acc + logits
            state.count += 1

    def flush(self, stream_id: Optional[str] = None) -> List[StreamResult]:
        """Emit partial windows (e.g. at end of feed) and reset them."""
        ids = [stream_id] if stream_id is not None else sorted(self._states)
        results: List[StreamResult] = []
        for sid in ids:
            state = self._states.get(sid)
            if state is None or state.count == 0:
                continue
            results.append(
                StreamResult(
                    stream_id=sid,
                    timestamp=state.last_event_time or 0.0,
                    logits=(state.acc * np.float32(1.0 / state.count))[0],
                    window_index=state.windows,
                    events_in_window=state.count,
                    frames=tuple(state.frames),
                    partial=True,
                )
            )
            state.windows += 1
            state.reset_window()
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stream_ids(self) -> List[str]:
        return sorted(self._states)

    def drop_stream(self, stream_id: str) -> None:
        """Forget a stream entirely (device decommissioned)."""
        self._states.pop(stream_id, None)

    def stats(self) -> Dict[str, Dict]:
        """Per-stream counters for monitoring."""
        return {
            sid: {
                "events": state.events,
                "windows": state.windows,
                "buffered": state.count,
                "stale_resets": state.stale_resets,
                "last_event_time": state.last_event_time,
            }
            for sid, state in sorted(self._states.items())
        }

    def offline_reference(self, frames) -> np.ndarray:
        """Offline batch logits over ``frames`` (the bit-identity oracle)."""
        with no_grad():
            out = self.model.forward_window([Tensor(f) for f in frames])
        return out.data[0]
