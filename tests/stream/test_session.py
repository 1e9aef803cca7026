"""Stateful streaming sessions: the bit-identity and lifecycle contract.

The load-bearing claim: every window a session emits is **bit-identical**
to the offline ``forward_window`` pass over the same encoded frames —
for tumbling and sliding windows, dense and frozen-CSR execution, and
every online encoder.
"""

import numpy as np
import pytest

from repro.data.telemetry import make_telemetry_stream
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.stream import (
    AdaptiveStreamSession,
    ListSource,
    RejectedEvent,
    StreamEvent,
    StreamSession,
)

CHANNELS = 6


def make_session(execution="dense", window=4, stride=None, encoder="direct",
                 seed=0, density=0.5, **kwargs):
    model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=window,
                       rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: density for name in manager.states})
    manager.set_execution(execution)
    manager.freeze()
    return StreamSession(model, window=window, stride=stride, encoder=encoder,
                         manager=manager, **kwargs)


def make_feed(streams=2, events=16, seed=0):
    return list(make_telemetry_stream(
        num_streams=streams, num_channels=CHANNELS, num_events=events, seed=seed,
    ))


def run_feed(session, feed):
    return [r for e in feed if (r := session.process(e)) is not None]


def gapped_events(times, stream_id="dev"):
    channels = np.linspace(0.1, 0.9, CHANNELS).astype(np.float32)
    return [StreamEvent(stream_id=stream_id, timestamp=t, channels=channels)
            for t in times]


class TestBitIdentity:
    @pytest.mark.parametrize("encoder", ["direct", "rate", "latency"])
    @pytest.mark.parametrize("execution", ["dense", "csr"])
    def test_tumbling_matches_offline_window(self, encoder, execution):
        session = make_session(execution=execution, encoder=encoder)
        results = run_feed(session, make_feed())
        assert results  # windows actually closed
        for result in results:
            reference = session.offline_reference(result.frames)
            assert np.array_equal(reference, result.logits)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_sliding_matches_offline_window(self, stride):
        session = make_session(stride=stride, encoder="rate")
        results = run_feed(session, make_feed(streams=1, events=12))
        # stride s emits every s events once the first window fills.
        assert len(results) == (12 - session.window) // stride + 1
        for result in results:
            assert len(result.frames) == session.window
            reference = session.offline_reference(result.frames)
            assert np.array_equal(reference, result.logits)

    def test_interleaving_does_not_leak_state_across_streams(self):
        feed = make_feed(streams=3, events=8)
        multiplexed = make_session(encoder="rate")
        by_stream = {}
        for result in run_feed(multiplexed, feed):
            by_stream.setdefault(result.stream_id, []).append(result.logits)
        assert len(by_stream) == 3
        for stream_id, logits in by_stream.items():
            solo = make_session(encoder="rate")
            alone = run_feed(
                solo, [e for e in feed if e.stream_id == stream_id]
            )
            assert len(alone) == len(logits)
            for a, b in zip(alone, logits):
                assert np.array_equal(a.logits, b)


class TestWindowing:
    def test_tumbling_window_counts(self):
        session = make_session(window=4)
        results = run_feed(session, make_feed(streams=1, events=11))
        assert [r.window_index for r in results] == [0, 1]
        assert all(r.events_in_window == 4 for r in results)
        assert session.stats()["device-00"]["buffered"] == 3

    def test_flush_emits_partials_bit_identical(self):
        session = make_session(window=4)
        run_feed(session, make_feed(streams=2, events=6))
        flushed = session.flush()
        assert {r.stream_id for r in flushed} == {"device-00", "device-01"}
        for result in flushed:
            assert result.partial
            assert result.events_in_window == 2
            reference = session.offline_reference(result.frames)
            assert np.array_equal(reference, result.logits)
        assert session.flush() == []  # windows were reset

    def test_prediction_is_argmax(self):
        session = make_session()
        (result,) = run_feed(session, make_feed(streams=1, events=4))
        assert result.prediction == int(np.argmax(result.logits))


class TestStaleness:
    def test_ttl_gap_resets_the_window(self):
        session = make_session(window=3, ttl=1.0)
        events = gapped_events([0.0, 0.2, 5.0, 5.1, 5.2])
        results = [session.process(e) for e in events]
        # The stale event at t=5 dropped the two buffered frames, so the
        # window closes on the third post-gap event, not earlier.
        assert [r is not None for r in results] == [False] * 4 + [True]
        assert session.stats()["dev"]["stale_resets"] == 1
        # Post-reset output is exactly a fresh-stream pass.
        fresh = make_session(window=3, ttl=1.0)
        golden = [fresh.process(e) for e in gapped_events([5.0, 5.1, 5.2])]
        assert np.array_equal(golden[-1].logits, results[-1].logits)

    def test_carry_policy_counts_but_keeps_state(self):
        session = make_session(window=3, ttl=1.0, reset_policy="carry")
        results = [session.process(e) for e in gapped_events([0.0, 0.2, 5.0])]
        assert results[-1] is not None  # window closed despite the gap
        assert session.stats()["dev"]["stale_resets"] == 1

    def test_within_ttl_no_reset(self):
        session = make_session(window=3, ttl=10.0)
        [session.process(e) for e in gapped_events([0.0, 5.0, 9.0])]
        assert session.stats()["dev"]["stale_resets"] == 0


class TestTransactionality:
    def test_crash_mid_event_retries_bit_identical(self):
        feed = make_feed(streams=2, events=8)
        golden = run_feed(make_session(encoder="rate"), feed)

        session = make_session(encoder="rate")
        crash_at = len(feed) // 2
        results = []
        for index, ev in enumerate(feed):
            if index == crash_at:
                def crashing_step(net_state, frame):
                    raise RuntimeError("injected crash")
                session._step = crashing_step
                with pytest.raises(RuntimeError, match="injected crash"):
                    session.process(ev)
                del session.__dict__["_step"]  # worker restarted
            result = session.process(ev)  # retry the same event
            if result is not None:
                results.append(result)

        assert len(results) == len(golden)
        for want, got in zip(golden, results):
            assert want.stream_id == got.stream_id
            assert np.array_equal(want.logits, got.logits)

    @pytest.mark.parametrize("hook", ["_step", "_after_step"])
    @pytest.mark.parametrize("encoder", ["direct", "rate", "latency"])
    def test_every_encoder_retries_bit_identical(self, encoder, hook):
        # Crash at the step (the clone's encoder state already moved)
        # and right after it (the clone already holds the new neuron
        # state), on every event of one stream.
        feed = make_feed(streams=2, events=9)
        uninterrupted = make_session(encoder=encoder, stride=2)
        golden = run_feed(uninterrupted, feed)
        session = make_session(encoder=encoder, stride=2)

        def crash(*args):
            raise RuntimeError("injected crash")

        results = []
        for ev in feed:
            if ev.stream_id == "device-01":
                setattr(session, hook, crash)
                with pytest.raises(RuntimeError, match="injected crash"):
                    session.process(ev)
                delattr(session, hook)
            if (result := session.process(ev)) is not None:
                results.append(result)

        assert len(results) == len(golden)
        for want, got in zip(golden, results):
            assert (want.stream_id, want.window_index) == (got.stream_id, got.window_index)
            assert want.logits.tobytes() == got.logits.tobytes()
            assert all(np.array_equal(a, b) for a, b in zip(want.frames, got.frames))
        assert session.stats() == uninterrupted.stats()


class TestLifecycle:
    def test_stats_and_drop_stream(self):
        session = make_session()
        run_feed(session, make_feed(streams=2, events=5))
        stats = session.stats()
        assert set(stats) == {"device-00", "device-01"}
        assert stats["device-00"]["events"] == 5
        assert stats["device-00"]["windows"] == 1
        session.drop_stream("device-00")
        assert session.stream_ids == ["device-01"]
        session.drop_stream("ghost")  # idempotent

    def test_width_change_is_rejected(self):
        session = make_session()
        session.process(StreamEvent("dev", 0.0, np.zeros(CHANNELS, np.float32)))
        with pytest.raises(ValueError, match="changed width"):
            session.process(StreamEvent("dev", 1.0, np.zeros(CHANNELS + 1, np.float32)))

    @pytest.mark.parametrize("execution", ["dense", "csr"])
    def test_wrong_width_events_are_rejected_alone(self, execution):
        # Both plan routes refuse a frame that does not fit the first
        # layer before anything steps, so a bad event fails alone.
        session = make_session(execution=execution)
        assert session.execution == "plan"
        good = make_feed(streams=2, events=1)
        bad = [StreamEvent(f"short-{i}", 0.0, np.ones(CHANNELS - 1, np.float32))
               for i in range(3)]
        for event in bad:
            with pytest.raises(RejectedEvent, match="the plan takes 6"):
                session.process(event)
        outputs = session.process_many([bad[0], good[0], bad[1], good[1]])
        assert [type(output) for output in outputs] == [RejectedEvent, type(None)] * 2
        # Rejected events leave no trace; accepted ones committed.
        assert session.stream_ids == ["device-00", "device-01"]
        assert all(per["events"] == 1 for per in session.stats().values())

    def test_process_many_takes_one_event_per_stream(self):
        session = make_session()
        first, second = make_feed(streams=1, events=2)
        with pytest.raises(ValueError, match="one event per stream"):
            session.process_many([first, second])
        assert session.stream_ids == []

    def test_validation(self):
        model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=4,
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="window"):
            StreamSession(model, window=0)
        with pytest.raises(ValueError, match="stride"):
            StreamSession(model, window=4, stride=5)
        with pytest.raises(ValueError, match="stride"):
            StreamSession(model, window=4, stride=0)
        with pytest.raises(ValueError, match="reset_policy"):
            StreamSession(model, reset_policy="explode")
        with pytest.raises(ValueError, match="ttl"):
            StreamSession(model, ttl=0.0)
        with pytest.raises(ValueError, match="unknown online encoder"):
            StreamSession(model, encoder="morse")

    def test_requires_frozen_manager(self):
        model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=4,
                           rng=np.random.default_rng(0))
        manager = SparsityManager(model, rng=np.random.default_rng(1))
        manager.init_random({name: 0.5 for name in manager.states})
        with pytest.raises(ValueError, match="AdaptiveStreamSession"):
            StreamSession(model, manager=manager)
        # The adaptive subclass accepts (and thaws) the same manager.
        assert AdaptiveStreamSession(model, manager).manager is manager
