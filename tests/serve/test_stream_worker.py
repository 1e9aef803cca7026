"""Sharded streaming workers: ordering, bit-identity, restart-without-loss.

The contracts mirror the batch server's, adapted to state:

* sharding changes *nothing*: a served feed yields per-stream readouts
  bit-identical to one session consuming the feed alone;
* a crashed worker costs a retry, never per-stream membrane state —
  sessions are server-owned and ``process`` is transactional.
"""

import threading
import time

import numpy as np
import pytest
from test_server import make_session as make_inference_session

from repro.data.telemetry import make_telemetry_stream
from repro.serve import InferenceServer, StreamServer
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.stream import StreamSession

CHANNELS = 6


def make_session(seed=0, window=4, encoder="rate"):
    model = SpikingMLP(CHANNELS, 3, hidden=(10,), timesteps=window,
                       rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_random({name: 0.5 for name in manager.states})
    manager.set_execution("csr")
    manager.freeze()
    return StreamSession(model, window=window, encoder=encoder, manager=manager)


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
    """Sessions whose first ``crashes`` events raise mid-process."""

    def __init__(self, crashes=1, **session_kwargs):
        self.remaining = crashes
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
                    if outer.remaining > 0:
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
