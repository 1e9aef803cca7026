"""Sharded streaming workers: ordering, bit-identity, restart-without-loss.

The contracts mirror the batch server's, adapted to state:

* sharding changes *nothing*: a served feed yields per-stream readouts
  bit-identical to one session consuming the feed alone;
* a crashed worker costs a retry, never per-stream membrane state —
  sessions are server-owned and ``process_many`` is transactional, so a
  crash mid-tick retries every stream in the tick;
* a malformed event fails alone, without killing its worker.
"""

import sys
import threading
import time

import numpy as np
import pytest
from test_server import make_session as make_inference_session

from repro.data.telemetry import make_telemetry_stream
from repro.serve import InferenceServer, StreamServer
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.stream import AdaptiveStreamSession, StreamEvent, StreamSession, WindowHookError

CHANNELS = 6


def make_session(seed=0, window=4, encoder="rate", execution="csr"):
    model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=window,
                       rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 0.5 for name in manager.states})
    manager.set_execution(execution)
    manager.freeze()
    return StreamSession(model, window=window, encoder=encoder, manager=manager)


def make_adaptive_session(seed=0, window=4):
    model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=window,
                       rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 0.5 for name in manager.states})
    return AdaptiveStreamSession(model, manager, adapt_every=1, window=window, encoder="rate")


def fail_first_round(session):
    """Make an adaptive session's first round raise; later rounds run."""
    update = session.method.update_topology
    calls = []

    def flaky(iteration):
        calls.append(iteration)
        if len(calls) == 1:
            raise RuntimeError("injected adaptation failure")
        return update(iteration)

    session.method.update_topology = flaky
    return session


def make_feed(streams=3, events=8, seed=0):
    return list(make_telemetry_stream(
        num_streams=streams, num_channels=CHANNELS, num_events=events, seed=seed,
    ))


def by_stream(results):
    grouped = {}
    for result in results:
        grouped.setdefault(result.stream_id, []).append(result.logits)
    return grouped


class _FlakyStreamFactory:
    """Sessions whose first ``crashes`` steps of at least ``min_rows``
    stacked events raise mid-process."""

    def __init__(self, crashes=1, min_rows=1, **session_kwargs):
        self.remaining = crashes
        self.min_rows = min_rows
        self.session_kwargs = session_kwargs
        self.lock = threading.Lock()

    def __call__(self):
        real = make_session(**self.session_kwargs)
        outer = self

        class Flaky(StreamSession):
            def __init__(self):
                # Reuse the already-built session's innards wholesale.
                self.__dict__.update(real.__dict__)

            def _step(self, net_state, frame):
                # Crash *after* the clone mutated (encoder state moved,
                # frame encoded) — exactly the mid-event worker death the
                # transactional contract is about.
                with outer.lock:
                    if outer.remaining > 0 and len(frame) >= outer.min_rows:
                        outer.remaining -= 1
                        raise RuntimeError("injected stream worker crash")
                return super()._step(net_state, frame)

        return Flaky()


@pytest.fixture(autouse=True)
def quiet_thread_excepthook(monkeypatch):
    # Worker deaths re-raise on purpose (the supervisor watches the
    # thread); keep the expected tracebacks out of the test output.
    monkeypatch.setattr(threading, "excepthook", lambda args: None)


class TestServedBitIdentity:
    @pytest.mark.parametrize("workers", (1, 3))
    def test_served_feed_matches_solo_session(self, workers):
        feed = make_feed()
        reference = make_session()
        solo = by_stream(
            [r for e in feed if (r := reference.process(e)) is not None]
        )
        with StreamServer(make_session, workers=workers) as server:
            served = by_stream(server.process_stream(feed, timeout=30.0))
            stats = server.stats()
        assert set(served) == set(solo)
        for stream_id, logits in served.items():
            assert len(logits) == len(solo[stream_id])
            for want, got in zip(solo[stream_id], logits):
                assert np.array_equal(want, got)
        assert stats["completed"] == len(feed)
        assert stats["windows"] == sum(len(v) for v in solo.values())
        assert stats["failed"] == 0

    def test_sharding_is_stable_and_in_range(self):
        server = StreamServer(make_session, workers=3)
        for stream_id in ("device-00", "device-01", "a", "b", "c"):
            shard = server.shard_of(stream_id)
            assert 0 <= shard < 3
            assert shard == server.shard_of(stream_id)

    def test_flush_drains_partial_windows(self):
        feed = make_feed(streams=2, events=6)  # 6 = one window + 2 buffered
        with StreamServer(make_session, workers=2) as server:
            server.process_stream(feed, timeout=30.0)
            flushed = server.flush()
        assert {r.stream_id for r in flushed} == {"device-00", "device-01"}
        assert all(r.partial for r in flushed)

    def test_a_busy_shard_steps_streams_together(self):
        feed = make_feed(streams=8, events=4)
        reference = make_session()
        solo = [r for e in feed if (r := reference.process(e)) is not None]
        server = StreamServer(make_session, workers=1)
        futures = [server.submit(event) for event in feed]  # queued before start
        with server:
            served = [r for f in futures if (r := f.result(timeout=30.0)) is not None]
            stats = server.stats()
        assert stats["largest_tick"] > 1
        assert stats["ticks"] < len(feed)
        assert stats["completed"] == len(feed)
        assert set(by_stream(served)) == set(by_stream(solo))
        for stream_id, logits in by_stream(served).items():
            assert all(np.array_equal(want, got)
                       for want, got in zip(by_stream(solo)[stream_id], logits))

    def test_module_path_shards_step_one_event_at_a_time(self):
        # An adaptive session rewires its masks as windows close, so its
        # results depend on event order: a shard must keep strict FIFO.
        # A wrong-width first event of a new stream has no plan width to
        # be checked against; it fails inside the model, retries like a
        # crash and fails alone.
        feed = make_feed(streams=4, events=8)
        bad = StreamEvent("device-99", 0.0, np.ones(CHANNELS + 2, np.float32))
        mixed = feed[:9] + [bad] + feed[9:]
        reference = make_adaptive_session()
        solo = [r for e in feed if (r := reference.process(e)) is not None]
        server = StreamServer(make_adaptive_session, workers=1, supervise_interval_s=0.002)
        futures = [server.submit(event) for event in mixed]  # queued before start
        with server:
            with pytest.raises(ValueError):
                futures[9].result(timeout=30.0)
            served = [r for f in futures[:9] + futures[10:]
                      if (r := f.result(timeout=30.0)) is not None]
            stats = server.stats()
            rounds = server._sessions[0].adaptation_rounds
        assert [r.stream_id for r in served] == [r.stream_id for r in solo]
        assert all(np.array_equal(want.logits, got.logits) for want, got in zip(solo, served))
        assert rounds == reference.adaptation_rounds
        assert stats["largest_tick"] == 1
        assert stats["failed"] == 1
        assert stats["completed"] == len(feed)

    def test_a_replaced_process_sees_every_event(self):
        # A wrapper set on the session instance (a profiler's, say) is
        # served one event per tick; a rejection still fails alone.
        seen = []

        def wrapped_session():
            session = make_session()
            process = session.process

            def traced(event):
                seen.append(event)
                return process(event)

            session.process = traced
            return session

        feed = make_feed(streams=8, events=4)
        bad = StreamEvent(feed[9].stream_id, feed[9].timestamp,
                          np.ones(CHANNELS - 1, np.float32))
        reference = make_session()
        solo = [r for e in feed if (r := reference.process(e)) is not None]
        server = StreamServer(wrapped_session, workers=1)
        futures = [server.submit(event) for event in feed[:10] + [bad] + feed[10:]]
        with server:
            with pytest.raises(ValueError, match="width"):
                futures[10].result(timeout=30.0)
            served = [r for f in futures[:10] + futures[11:]
                      if (r := f.result(timeout=30.0)) is not None]
            stats = server.stats()
        assert len(seen) == len(feed) + 1
        assert [r.stream_id for r in served] == [r.stream_id for r in solo]
        assert all(np.array_equal(want.logits, got.logits) for want, got in zip(solo, served))
        assert stats["largest_tick"] == 1
        assert stats["restarts"] == 0
        assert stats["failed"] == 1

    def test_stats_report_each_shards_execution(self):
        with StreamServer(make_session, workers=2) as server:
            assert server.stats()["execution"] == ["plan", "plan"]

    def test_per_stream_stats_are_merged_across_shards(self):
        feed = make_feed(streams=3, events=5)
        with StreamServer(make_session, workers=2) as server:
            server.process_stream(feed, timeout=30.0)
            streams = server.stats()["streams"]
        assert set(streams) == {"device-00", "device-01", "device-02"}
        assert all(per["events"] == 5 for per in streams.values())


class TestRestartWithoutLoss:
    def test_crashed_worker_retries_and_state_survives(self):
        feed = make_feed(streams=2, events=12)
        reference = make_session()
        solo = by_stream(
            [r for e in feed if (r := reference.process(e)) is not None]
        )
        with StreamServer(
            _FlakyStreamFactory(crashes=2), workers=1,
            supervise_interval_s=0.002,
        ) as server:
            served = by_stream(server.process_stream(feed, timeout=30.0))
            stats = server.stats()
        # Bit-identical despite two mid-event worker deaths: committed
        # per-stream state (membranes + encoder RNG) survived intact.
        assert set(served) == set(solo)
        for stream_id, logits in served.items():
            for want, got in zip(solo[stream_id], logits):
                assert np.array_equal(want, got)
        assert stats["restarts"] >= 2
        assert stats["failed"] == 0
        assert stats["completed"] == len(feed)

    def test_crash_mid_tick_retries_every_stream_in_it(self):
        feed = make_feed(streams=4, events=8)
        reference = make_session()
        solo = by_stream(
            [r for e in feed if (r := reference.process(e)) is not None]
        )
        factory = _FlakyStreamFactory(crashes=2, min_rows=2)
        server = StreamServer(factory, workers=1, supervise_interval_s=0.002)
        futures = [server.submit(event) for event in feed]  # queued before start
        with server:
            served = by_stream([r for f in futures if (r := f.result(timeout=30.0)) is not None])
            stats = server.stats()
        assert factory.remaining == 0  # both crashes hit a stacked tick
        assert set(served) == set(solo)
        for stream_id, logits in served.items():
            assert len(logits) == len(solo[stream_id])
            for want, got in zip(solo[stream_id], logits):
                assert np.array_equal(want, got)
        assert stats["restarts"] >= 2
        assert stats["failed"] == 0
        assert stats["completed"] == len(feed)

    @pytest.mark.parametrize("execution", ["dense", "csr"])
    def test_malformed_events_fail_alone(self, execution):
        # Three wrong-width events, one on a stream never seen before:
        # each fails its own future and no worker dies, so the healthy
        # feed is served in full and bit-identically.
        feed = make_feed(streams=3, events=8)
        bad = [StreamEvent(feed[index].stream_id, feed[index].timestamp,
                           np.ones(CHANNELS - 1, np.float32)) for index in (4, 9)]
        bad.append(StreamEvent("device-99", 0.0, np.ones(CHANNELS + 2, np.float32)))
        mixed = feed[:5] + bad[:1] + feed[5:10] + bad[1:] + feed[10:]
        reference = make_session(execution=execution)
        solo = by_stream(
            [r for e in feed if (r := reference.process(e)) is not None]
        )
        with StreamServer(lambda: make_session(execution=execution), workers=2) as server:
            futures = {id(event): server.submit(event) for event in mixed}
            for event in bad:
                with pytest.raises(ValueError, match="width|channels"):
                    futures[id(event)].result(timeout=30.0)
            served = by_stream([r for e in feed
                                if (r := futures[id(e)].result(timeout=30.0)) is not None])
            stats = server.stats()
        assert set(served) == set(solo)
        for stream_id, logits in served.items():
            assert len(logits) == len(solo[stream_id])
            for want, got in zip(solo[stream_id], logits):
                assert np.array_equal(want, got)
        assert stats["restarts"] == 0
        assert stats["failed"] == len(bad)
        assert stats["completed"] == len(feed)
        assert "device-99" not in stats["streams"]

    def test_a_raising_window_hook_fails_the_event_after_its_commit(self):
        session = fail_first_round(make_adaptive_session(window=2))
        feed = make_feed(streams=1, events=4)
        assert session.process(feed[0]) is None
        with pytest.raises(WindowHookError) as failure:
            session.process(feed[1])
        # The window was committed before the hook ran: the error carries
        # its readout and chains the hook's error.
        assert failure.value.result.window_index == 0
        assert isinstance(failure.value.__cause__, RuntimeError)
        assert session.stats()[feed[0].stream_id]["events"] == 2
        # The next window opens normally and its hook runs.
        assert session.process(feed[2]) is None
        assert session.process(feed[3]).window_index == 1
        assert session.adaptation_rounds == 2
        assert len(session.method.history) == 1

    def test_a_raising_window_hook_fails_its_event_without_a_retry(self):
        # A retry would apply the committed window's events twice, so the
        # event's future fails by name and the worker lives on.
        feed = make_feed(streams=1, events=4)
        stream_id = feed[0].stream_id
        with StreamServer(lambda: fail_first_round(make_adaptive_session(window=2)),
                          workers=1) as server:
            first = [server.submit(event) for event in feed[:2]]
            assert first[0].result(timeout=30.0) is None
            with pytest.raises(WindowHookError):
                first[1].result(timeout=30.0)
            stats = server.stats()
            assert stats["streams"][stream_id]["events"] == 2
            assert stats["restarts"] == 0
            second = [server.submit(event).result(timeout=30.0) for event in feed[2:]]
            stats = server.stats()
        assert second[0] is None and second[1].window_index == 1
        # The hook's failed window was committed, so the server counts it.
        assert stats["windows"] == stats["streams"][stream_id]["windows"] == 2

    def test_counters_hold_with_rejected_events_under_contention(self):
        # More shards than cores and a tiny switch interval: a counter
        # update lost between workers breaks the sums below.
        feed = make_feed(streams=16, events=8)
        events = [
            StreamEvent(event.stream_id, event.timestamp, np.ones(CHANNELS - 1, np.float32))
            if index % 5 == 0 else event
            for index, event in enumerate(feed)
        ]
        rejected = sum(index % 5 == 0 for index in range(len(feed)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with StreamServer(make_session, workers=8) as server:
                futures = [server.submit(event) for event in events]
                for future in futures:
                    future.exception(timeout=30.0)
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats["submitted"] == len(events)
        assert stats["failed"] == rejected
        assert stats["completed"] == len(events) - rejected
        assert sum(isinstance(f.exception(), ValueError) for f in futures) == rejected
        assert stats["restarts"] == 0

    def test_exhausted_retry_budget_fails_the_future(self):
        with StreamServer(
            _FlakyStreamFactory(crashes=100), workers=1,
            max_attempts=2, max_restarts=100, supervise_interval_s=0.002,
        ) as server:
            future = server.submit(make_feed(streams=1, events=1)[0])
            with pytest.raises(RuntimeError, match="injected stream worker"):
                future.result(timeout=30.0)
            assert server.stats()["failed"] >= 1

    def test_restart_budget_exhaustion_fails_queued_events(self):
        def doomed_factory():
            raise RuntimeError("factory can never build a session")

        server = StreamServer(
            doomed_factory, workers=1, max_restarts=2,
            supervise_interval_s=0.002,
        )
        with pytest.raises(RuntimeError, match="factory can never"):
            server.start()

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            StreamServer(make_session, workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            StreamServer(make_session, max_attempts=0)

    @pytest.mark.parametrize("build", [
        lambda: StreamServer(make_session, workers=1),
        lambda: InferenceServer(make_inference_session, workers=1),
    ], ids=["stream", "inference"])
    def test_start_after_stop_is_a_named_error(self, build):
        server = build()
        server.start()
        server.start()  # no-op while running
        server.stop()
        server.stop()  # no-op once stopped
        # stop() closed the queues, so a restart would only spawn
        # workers that exit at once; it must refuse, not burn restarts.
        with pytest.raises(RuntimeError, match="was stopped and cannot start again"):
            server.start()
        time.sleep(0.05)
        assert server.stats()["restarts"] == 0
