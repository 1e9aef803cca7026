"""Stateful per-stream inference sessions.

A :class:`StreamSession` runs one spiking model over a multiplexed
event feed, holding persistent neuron membrane state *per stream*: each
arriving event is one timestep for its stream.

Windowing — the readout is emitted per window of ``window`` events:

* ``stride == window`` (tumbling, the default): neuron state carries
  across events *within* a window and resets at the boundary.  Each
  event costs exactly one step.
* ``stride < window`` (sliding): consecutive windows overlap.  On
  emission the session replays the retained tail of buffered *encoded*
  frames from a fresh reset, so every emitted window is exactly the
  offline pass over its frames.

Either way the emitted logits are **bit-identical** to
``model.forward_window(frames)`` over the same encoded frames: the
incremental accumulator uses the same op order (plain float32 adds,
then one scale by ``1/len``) as the offline loop, and the state a step
hands on is stored and read back exactly.

Slots: the session keeps neuron state in one ``(capacity, width)``
store.  A stream's row (its *slot*) holds the arrays of its stepped
neuron state side by side (``v`` and ``o_prev`` per neuron on a plan;
every entry of the module snapshot otherwise), then its logit sum.  The
store is allocated at the first commit and doubles when the streams
outgrow it.  A stream holds its slot only while its window holds
events: a window that empties (a tumbling readout, ``flush``) or
``drop_stream`` frees it for the next stream, so the store is as large
as the open windows.

Ticks: :meth:`StreamSession.process_many` takes at most one event per
stream and works on the whole tick at once.  It validates, applies the
TTL and encodes every event in one pass, gathers the tick's rows with
one fancy index per array, steps them, and scatters them back once every
event has stepped.  A frozen session whose ``forward_once`` is a
straight chain of ``Linear`` layers and LIF/IF neurons is compiled once,
at construction, into a flat :class:`~repro.stream.plan.StreamPlan`, and
steps the whole tick as **one** plan step: a server shard with 16 busy
streams walks the plan once and makes one CSR kernel call per layer,
not 16, and every row is bit-equal to stepping its stream alone.  The
plan fixes only the chain of layers: every step reads each layer's
route, CSR pattern and values, so a manager thawed, edited and
re-frozen after construction is run exactly as ``offline_reference``
runs it.  Anything else (a manager thawed at construction, other neuron
or layer types) runs the module path: each row's snapshot is restored
into the shared model around its own ``forward_once``, one event at a
time.  ``session.execution`` says which, and why.

Fault tolerance: processing is transactional — the store and every
stream's bookkeeping change only once every event of a
``process_many`` call (sliding-window replays included) has stepped,
so a worker crash mid-call costs a retry of the whole call, never
corrupted state.  A malformed event (a width that does not fit its
stream or the plan) is rejected on its own with a
:class:`RejectedEvent` (a ``ValueError``) before anything steps.  Stale
streams (event-time gap beyond ``ttl``) are reset (or carried, per
``reset_policy``) instead of poisoning the readout with decayed
membranes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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


class WindowHookError(RuntimeError):
    """The window hook raised after its event's tick committed, so the
    event must not be retried: ``result`` is the committed readout and
    ``__cause__`` the hook's error."""

    def __init__(self, result: StreamResult) -> None:
        super().__init__(f"window hook failed after {result.stream_id!r} "
                         f"window {result.window_index} committed")
        self.result = result


class _StreamState:
    """One stream's bookkeeping.  While its window holds events
    (``count > 0``) its neuron state and logit sum live in row ``slot``
    of the session's :class:`_Slots`; an empty window steps next from a
    reset, needs no row and holds no slot."""

    __slots__ = (
        "slot", "encoder_state", "frames", "count", "last_event_time",
        "events", "windows", "stale_resets", "num_channels",
    )

    def __init__(self, encoder_state: Dict, num_channels: int) -> None:
        self.slot: Optional[int] = None
        self.encoder_state = encoder_state
        self.frames: List[np.ndarray] = []
        self.count = 0
        self.last_event_time: Optional[float] = None
        self.events = 0
        self.windows = 0
        self.stale_resets = 0
        self.num_channels = num_channels


def _leaves(state) -> tuple:
    """The arrays of a stepped state in order: a plan's flat tuple as it
    is, the values of a module snapshot's nested dicts flattened."""
    if isinstance(state, tuple):
        return state
    return tuple(leaf for part in state.values()
                 for leaf in (_leaves(part) if isinstance(part, dict) else (part,)))


def _rebuild(template, leaves: Iterator):
    """The arrays ``leaves`` in ``template``'s nesting (see :func:`_leaves`)."""
    if isinstance(template, tuple):
        return tuple(leaves)
    return {key: _rebuild(part, leaves) if isinstance(part, dict) else next(leaves)
            for key, part in template.items()}


class _Slots:
    """Every stream's neuron state and logit sum, one row (slot) per stream.

    ``rows`` is one ``(capacity, width)`` array.  A row holds each leaf of
    its stream's stepped state (see :func:`_leaves`), flattened, then the
    stream's logit sum, so a tick gathers and scatters all of them with
    one fancy index each way.  ``rows`` is laid out at the first commit,
    when the leaves' shapes are known, and doubles when the streams
    outgrow it; released slots are reused.  ``template`` is the first
    stepped state, whose nesting every gathered state is rebuilt in.
    """

    FIRST_CAPACITY = 8

    def __init__(self) -> None:
        self.template = None
        self.rows: Optional[np.ndarray] = None
        # Per leaf: None (a leaf a step leaves unset) or (columns, row
        # shape, dtype); then the logit sum's columns.
        self.columns: List[Optional[tuple]] = []
        self.acc_columns = slice(0, 0)
        self.free: List[int] = []
        self.used = 0

    def take(self) -> int:
        """A free slot: a released one, else the next unused row."""
        if self.free:
            return self.free.pop()
        self.used += 1
        return self.used - 1

    def gather(self, index: np.ndarray):
        """``(block, leaves)``: a copy of rows ``index``, and its leaves as views."""
        block = self.rows.take(index, axis=0)
        leaves = []
        for entry in self.columns:
            if entry is not None:
                columns, shape, dtype = entry
                entry = block[:, columns]
                if shape is not None:
                    entry = entry.reshape((len(block),) + shape)
                if dtype is not None:
                    entry = entry.astype(dtype)
            leaves.append(entry)
        return block, leaves

    def new_block(self, leaves: tuple, acc: np.ndarray) -> np.ndarray:
        """An empty block for ``len(acc)`` rows, laying ``rows`` out first.

        A leaf's row shape is kept only when it is not 1-D, and its dtype
        only when it differs from the block's, so most views need neither
        a reshape nor a cast.
        """
        if self.rows is None:
            dtype = np.result_type(*[leaf for leaf in leaves if leaf is not None], acc)
            width = 0
            for leaf in leaves:
                if leaf is None:
                    self.columns.append(None)
                    continue
                size = leaf[0].size
                self.columns.append((slice(width, width + size),
                                     leaf.shape[1:] if leaf.ndim != 2 else None,
                                     leaf.dtype if leaf.dtype != dtype else None))
                width += size
            self.acc_columns = slice(width, width + acc.shape[1])
            self.rows = np.zeros((0, self.acc_columns.stop), dtype)
        return np.empty((len(acc), self.rows.shape[1]), self.rows.dtype)

    def scatter(self, index: np.ndarray, block: np.ndarray, leaves: tuple) -> None:
        """Write ``leaves`` into ``block``, then ``block`` into rows ``index``."""
        for leaf, entry in zip(leaves, self.columns):
            if entry is not None:
                block[:, entry[0]] = leaf if entry[1] is None else leaf.reshape(len(block), -1)
        if self.used > len(self.rows):
            capacity = max(len(self.rows), self.FIRST_CAPACITY)
            while capacity < self.used:
                capacity *= 2
            grown = np.zeros((capacity, self.rows.shape[1]), self.rows.dtype)
            grown[:len(self.rows)] = self.rows
            self.rows = grown
        self.rows[index] = block


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
        self._slots = _Slots()

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
        malformed event raises its :class:`RejectedEvent`, and a failed
        window hook its :class:`WindowHookError` after the commit (see
        :meth:`process_many`).
        """
        output = self.process_many([event])[0]
        if isinstance(output, Exception):
            raise output
        return output

    def process_many(self, events: List[StreamEvent]) -> List[object]:
        """Advance each event's stream by that event: one output per event.

        The events must belong to distinct streams.  An output is the
        event's :class:`StreamResult`, ``None`` when no window closed, or
        the :class:`RejectedEvent` refusing a malformed event: one whose
        width differs from its stream's recorded width or from the plan's
        input width.  A rejected event leaves its stream untouched.  A
        window whose :meth:`_after_window` hook raises is committed all
        the same, and its output is a :class:`WindowHookError` carrying
        the result.

        The accepted events' rows are gathered from the slot store and
        stepped (one plan step for all of them, or one module-path step
        each), and written back only after every step has returned:
        on exception nothing is committed, and the caller can safely
        retry all the events.
        """
        if len(events) > 1 and len({event.stream_id for event in events}) < len(events):
            raise ValueError("process_many takes at most one event per stream")
        outputs: List[object] = [None] * len(events)
        ttl, stale_resets = self.ttl, self.reset_policy == "reset"
        copy_state = self.encoder.copy_state
        # One pass over the events.  Per accepted event, a row of the tick:
        # (output position, event, stream, the events its window carries
        # into this step, stale), its next encoder state, its channels and
        # its stream's slot (0 for a new stream); ``reset`` lists the rows
        # that step from a reset.
        tick, encoder_states, channels, index, reset = [], [], [], [], []
        for position, event in enumerate(events):
            try:
                stream = self._stream_of(event)
            except RejectedEvent as error:
                outputs[position] = error
                continue
            stale = (
                ttl is not None
                and stream.last_event_time is not None
                and event.timestamp - stream.last_event_time > ttl
            )
            carried = 0 if stale and stale_resets else stream.count
            if not carried:
                reset.append(len(tick))
            index.append(0 if stream.slot is None else stream.slot)
            tick.append((position, event, stream, carried, stale))
            encoder_states.append(copy_state(stream.encoder_state))
            channels.append(event.channels)
        if not tick:
            return outputs
        frames = self.encoder.encode_many(channels, encoder_states)
        if self._plan is not None:
            self._plan.drop_counts()  # a failed tick's steps count nothing

        # Gather the carried rows and step every row.
        slots = self._slots
        index = np.array(index)
        block = work = None
        if slots.rows is not None and len(reset) < len(tick):
            block, work = slots.gather(index)
            if reset:
                block[reset] = 0.0
        logits, work = self._step_rows(work, reset, frames, observe=True)
        if block is None:
            block = slots.new_block(work, logits)
            acc = block[:, slots.acc_columns]
            acc[...] = logits
        else:
            acc = block[:, slots.acc_columns]
            acc += logits
            if reset:
                acc[reset] = logits[reset]

        # Closed windows: read out, then restart from the sliding tail.
        window, stride = self.window, self.stride
        closing = [row for row, entry in enumerate(tick) if entry[3] + 1 == window]
        scale = np.float32(1.0 / window)
        readouts = iter([acc[row] * scale for row in closing])
        if closing and stride < window:
            tail_acc, tail_work = self._replay(
                [tick[row][2].frames[stride:] + [frames[row:row + 1]] for row in closing])
            acc[closing] = tail_acc
            for leaf, tail_leaf in zip(work, tail_work):
                if leaf is not None:
                    leaf[closing] = tail_leaf

        # Commit: every step has returned.
        for row, (_, event, stream, _, _) in enumerate(tick):
            if stream.slot is None:  # a new stream, or one whose window was empty
                stream.slot = index[row] = slots.take()
                self._states[event.stream_id] = stream
        slots.scatter(index, block, work)
        if self._plan is not None:
            self._plan.publish_counts()
        for row, (position, event, stream, carried, stale) in enumerate(tick):
            stream.encoder_state = encoder_states[row]
            stream.events += 1
            stream.last_event_time = float(event.timestamp)
            if stale:
                stream.stale_resets += 1
            if carried:
                stream.frames.append(frames[row:row + 1])
            else:
                stream.frames = [frames[row:row + 1]]
            stream.count = carried + 1
            if stream.count < window:
                continue
            outputs[position] = StreamResult(
                stream_id=event.stream_id,
                timestamp=float(event.timestamp),
                logits=next(readouts),
                window_index=stream.windows,
                events_in_window=window,
                frames=tuple(stream.frames),
            )
            stream.windows += 1
            stream.frames = stream.frames[stride:]
            stream.count = len(stream.frames)
            if not stream.count:
                self._release(stream)
        if closing:
            for position, output in enumerate(outputs):
                if isinstance(output, StreamResult):
                    try:
                        self._after_window(output)
                    except Exception as error:
                        outputs[position] = WindowHookError(output)
                        outputs[position].__cause__ = error
        return outputs

    def _stream_of(self, event: StreamEvent) -> _StreamState:
        """The event's stream, a new unregistered one on its first event.

        Raises :class:`RejectedEvent` for an event whose width differs
        from its stream's recorded width or from the plan's input width.
        """
        width = event.channels.shape[0]
        stream = self._states.get(event.stream_id)
        if stream is not None and width != stream.num_channels:
            raise RejectedEvent(
                f"stream {event.stream_id!r} changed width: "
                f"{stream.num_channels} -> {width}"
            )
        if self._plan is not None and width != self._plan.in_features:
            raise RejectedEvent(
                f"stream {event.stream_id!r} sent {width} channels; "
                f"the plan takes {self._plan.in_features}"
            )
        if stream is None:
            stream = _StreamState(self.encoder.init_state(event.stream_id), width)
        return stream

    def _step_rows(self, work, reset: List[int], frames: np.ndarray, observe: bool):
        """Step each row of ``frames`` from its row of ``work``: ``(logits, work)``.

        ``work`` holds the rows' state leaves (``None`` when every row is
        fresh); the rows listed in ``reset`` step from a reset.  A plan
        steps every row at once, fresh rows from zeros: exactly as from a
        reset, up to the sign of a zero membrane, which no spike or
        readout can see.  The module path steps the rows one at a time.
        ``observe`` runs :meth:`_after_step` after each step.
        """
        if self._plan is not None:
            return self._step_group(work, frames, observe)
        stepped = [
            self._step_group(
                None if work is None or row in reset
                else [None if leaf is None else leaf[row:row + 1] for leaf in work],
                frames[row:row + 1], observe)
            for row in range(len(frames))
        ]
        if len(stepped) == 1:
            return stepped[0]
        return (np.concatenate([logits for logits, _ in stepped]),
                [None if parts[0] is None else np.concatenate(parts)
                 for parts in zip(*(leaves for _, leaves in stepped))])

    def _step_group(self, work, frames: np.ndarray, observe: bool):
        """One :meth:`_step` over ``frames`` from ``work``: ``(logits, leaves)``."""
        slots = self._slots
        state = None if work is None else _rebuild(slots.template, iter(work))
        logits, state = self._step(state, frames)
        if observe:
            self._after_step(frames)
        if slots.template is None:
            slots.template = state
        return logits, _leaves(state)

    def _replay(self, tails: List[List[np.ndarray]]):
        """Step equal-length frame ``tails`` from a reset: ``(acc, work)``."""
        acc = work = None
        for frames in zip(*tails):
            logits, work = self._step_rows(work, [], np.concatenate(frames), observe=False)
            acc = logits if acc is None else acc + logits
        return acc, work

    def _after_step(self, frame: np.ndarray) -> None:
        """Hook: a step over ``frame`` just ran (one event's row on the
        module path, where the model's neuron state is still live for it;
        a plan step's rows may stack several streams)."""

    def _after_window(self, result: StreamResult) -> None:
        """Hook: a window readout was just committed."""

    def _step(self, net_state, frame: np.ndarray) -> Tuple[np.ndarray, object]:
        """One timestep from ``net_state``: ``(logits, next_net_state)``.

        ``net_state`` is ``None`` (a reset) or, rebuilt from the slot
        store, a state this method returned: a plan state, or a module
        snapshot on the module path.
        """
        if self._plan is not None:
            return self._plan.step(net_state, frame)
        if net_state is None:
            reset_net(self.model)
        else:
            restore_net_state(self.model, net_state)
        with no_grad():
            out = self.model.forward_once(Tensor(frame))
        return out.data, snapshot_net_state(self.model)

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
                    logits=(self._slots.rows[state.slot, self._slots.acc_columns]
                            * np.float32(1.0 / state.count)),
                    window_index=state.windows,
                    events_in_window=state.count,
                    frames=tuple(state.frames),
                    partial=True,
                )
            )
            state.windows += 1
            state.frames = []
            state.count = 0
            self._release(state)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stream_ids(self) -> List[str]:
        return sorted(self._states)

    def drop_stream(self, stream_id: str) -> None:
        """Forget a stream entirely (device decommissioned); its slot is reused."""
        state = self._states.pop(stream_id, None)
        if state is not None:
            self._release(state)

    def _release(self, stream: _StreamState) -> None:
        """Give ``stream``'s slot back: its window is empty or it is gone."""
        if stream.slot is not None:
            self._slots.free.append(stream.slot)
            stream.slot = None

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
