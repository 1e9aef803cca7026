"""The slot store under random feeds: ticks equal events one at a time.

A plan session keeps every stream's neuron state and logit sum in one
row of its slot store and steps each ``process_many`` tick at once.
Hypothesis drives it over feeds of 9 to 20 streams (more than the
store's first capacity, so it must grow) in random tick partitions of
1 to 16 distinct streams, with TTL gaps under ``reset`` and ``carry``,
tumbling and sliding windows, events of the wrong width, dropped
streams that come back (and reuse a freed slot), and a crash injected
through ``_step`` at a random step of a tick, then retried.

After every tick the plan session must match a module-path session fed
the same events one at a time: the same outputs, ``stats()`` and
spike counters.  Every window is also ``tobytes()``-equal to
``offline_reference`` on a third copy of the model.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_plan import ModulePathSession

from repro.snn.models import SpikingMLP
from repro.snn.neuron import BaseNeuron
from repro.sparse import SparsityManager
from repro.stream import RejectedEvent, StreamEvent, StreamSession

CHANNELS = 6
TTL = 0.5


def build(execution):
    model = SpikingMLP(CHANNELS, 3, hidden=(12,), timesteps=4, v_threshold=0.3,
                       rng=np.random.default_rng(0))
    manager = SparsityManager(model, rng=np.random.default_rng(1))
    manager.init_random({name: 0.5 for name in manager.states})
    manager.set_execution(execution)
    return model, manager.freeze()


def counters(model):
    return [(module.spike_count, module.neuron_steps)
            for module in model.modules() if isinstance(module, BaseNeuron)]


@st.composite
def feeds(draw):
    """``(session kwargs, ticks)``: each tick a list of events of distinct
    streams, a stream to drop after it (or ``None``) and, for one tick,
    the number of steps to let through before a crash."""
    streams = [f"s{index:02d}" for index in range(draw(st.integers(9, 20)))]
    clock = {sid: 0.0 for sid in streams}
    crash_tick = draw(st.integers(0, 11))
    ticks = []
    for tick_index in range(draw(st.integers(6, 12))):
        # The first tick brings at least 9 streams: the store must grow.
        first = tick_index == 0
        chosen = draw(st.lists(st.sampled_from(streams), min_size=9 if first else 1,
                               max_size=16, unique=True))
        events = []
        for sid in chosen:
            clock[sid] += draw(st.sampled_from([0.1, 0.1, 0.1, 2 * TTL]))
            width = CHANNELS if first else draw(st.sampled_from([CHANNELS] * 9 + [CHANNELS + 1]))
            seed = draw(st.integers(0, 2**16))
            channels = np.random.default_rng(seed).random(width).astype(np.float32)
            events.append(StreamEvent(sid, clock[sid], channels))
        dropped = draw(st.one_of(st.none(), st.sampled_from(streams)))
        crash = draw(st.integers(0, 2)) if tick_index == crash_tick else None
        ticks.append((events, dropped, crash))
    window = draw(st.integers(2, 4))
    stride = draw(st.one_of(st.none(), st.integers(1, window)))
    kwargs = {
        "window": window, "stride": stride,
        "encoder": draw(st.sampled_from(["direct", "rate", "latency"])),
        "ttl": TTL, "reset_policy": draw(st.sampled_from(["reset", "carry"])),
    }
    return draw(st.sampled_from(["csr", "dense"])), kwargs, ticks


def same(want, got):
    if isinstance(want, RejectedEvent):
        return isinstance(got, RejectedEvent) and str(want) == str(got)
    if want is None or got is None:
        return want is got
    return ((want.stream_id, want.timestamp, want.window_index, want.events_in_window)
            == (got.stream_id, got.timestamp, got.window_index, got.events_in_window)
            and want.logits.tobytes() == got.logits.tobytes()
            and len(want.frames) == len(got.frames)
            and all(a.tobytes() == b.tobytes() for a, b in zip(want.frames, got.frames)))


def one_at_a_time(session, events):
    outputs = []
    for event in events:
        try:
            outputs.append(session.process(event))
        except RejectedEvent as error:
            outputs.append(error)
    return outputs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(feeds())
def test_ticks_match_the_module_path_event_by_event(feed):
    execution, kwargs, ticks = feed
    ticked_model, ticked_manager = build(execution)
    ticked = StreamSession(ticked_model, manager=ticked_manager, **kwargs)
    single_model, single_manager = build(execution)
    single = ModulePathSession(single_model, manager=single_manager, **kwargs)
    oracle_model, oracle_manager = build(execution)
    oracle = StreamSession(oracle_model, manager=oracle_manager, **kwargs)
    assert ticked.execution == "plan"

    emitted = []
    for events, dropped, crash in ticks:
        if crash is not None:
            step, steps = ticked._step, []

            def crashing(state, frame, step=step, steps=steps, crash=crash):
                if len(steps) == crash:
                    raise RuntimeError("injected crash")
                steps.append(len(frame))
                return step(state, frame)

            ticked._step = crashing
            try:
                outputs = ticked.process_many(events)
            except RuntimeError:
                outputs = None  # nothing committed: retry the whole tick
            del ticked._step
            if outputs is None:
                outputs = ticked.process_many(events)
        else:
            outputs = ticked.process_many(events)
        expected = one_at_a_time(single, events)
        assert all(same(want, got) for want, got in zip(expected, outputs))
        assert len(expected) == len(outputs)
        assert ticked.stats() == single.stats()
        assert counters(ticked_model) == counters(single_model)
        emitted += [output for output in outputs if output is not None
                    and not isinstance(output, RejectedEvent)]
        if dropped is not None:
            ticked.drop_stream(dropped)
            single.drop_stream(dropped)
    flushed = ticked.flush()
    assert all(same(want, got) for want, got in zip(single.flush(), flushed))
    assert counters(ticked_model) == counters(single_model)
    assert len(ticked._slots.rows) > ticked._slots.FIRST_CAPACITY
    for result in emitted + flushed:
        assert oracle.offline_reference(result.frames).tobytes() == result.logits.tobytes()


def test_a_dropped_streams_slot_is_reused():
    model, manager = build("csr")
    session = StreamSession(model, manager=manager, window=4)
    channels = np.linspace(0.1, 0.9, CHANNELS).astype(np.float32)
    session.process_many([StreamEvent(f"s{i}", 0.0, channels) for i in range(3)])
    freed = session._states["s1"].slot
    session.drop_stream("s1")
    newcomer = [StreamEvent("newcomer", 0.1 * step, channels * step) for step in range(1, 5)]
    results = [session.process(newcomer[0])]
    assert session._states["newcomer"].slot == freed
    assert session._slots.used == 3
    results += [session.process(event) for event in newcomer[1:]]
    # The closed window emptied the stream's row: its slot is free again.
    assert session._states["newcomer"].slot is None
    assert session._slots.free == [freed]
    # The reused row starts fresh: its window equals the stream's alone.
    alone_model, alone_manager = build("csr")
    alone = StreamSession(alone_model, manager=alone_manager, window=4)
    expected = [alone.process(event) for event in newcomer]
    assert results[-1].logits.tobytes() == expected[-1].logits.tobytes()


def test_only_open_windows_hold_slots():
    model, manager = build("csr")
    session = StreamSession(model, manager=manager, window=2)
    channels = np.full(CHANNELS, 0.5, dtype=np.float32)
    for phase in range(5):  # new streams every phase, each closing its window
        for step in range(2):
            session.process_many([StreamEvent(f"p{phase}-s{i}", 0.1 * step, channels)
                                  for i in range(12)])
    assert len(session.stream_ids) == 60
    assert all(session._states[sid].slot is None for sid in session.stream_ids)
    assert session._slots.used == 12 and len(session._slots.rows) == 16
    session.process(StreamEvent("p0-s0", 1.0, channels))
    session.flush()
    assert session._states["p0-s0"].slot is None


@pytest.mark.parametrize("streams", [1, 8, 9, 33])
def test_the_store_grows_geometrically_and_lazily(streams):
    model, manager = build("csr")
    session = StreamSession(model, manager=manager, window=4)
    assert session._slots.rows is None  # nothing allocated at construction
    channels = np.full(CHANNELS, 0.5, dtype=np.float32)
    for start in range(0, streams, 16):
        session.process_many([StreamEvent(f"s{i}", 0.0, channels)
                              for i in range(start, min(streams, start + 16))])
    capacity = len(session._slots.rows)
    assert capacity >= streams
    assert capacity == max(8, 1 << (streams - 1).bit_length())
