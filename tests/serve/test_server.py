"""Serving stack: micro-batcher policy, registry, and the supervised
worker pool.

The two contracts the tentpole rests on:

* concurrency changes *nothing*: N clients hammering the batched
  server get bit-identical results to sequential single-request
  inference, at every batch size (sessions pad every forward to one
  canonical GEMM shape precisely so this holds);
* a crashed worker costs a retry, not an answer: its in-flight
  requests go back to the queue front, a fresh worker replaces it, and
  only requests whose retry budget is exhausted fail.
"""

import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.serve import InferenceServer, InferenceSession, MicroBatcher, ModelRegistry
from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager


def make_session(max_batch=4, seed=0, execution="csr"):
    model = SpikingMLP(in_features=10, num_classes=5, hidden=(12,),
                       timesteps=2, rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_distribution("uniform", 0.3)
    manager.set_execution(execution)
    return InferenceSession(model, manager, max_batch=max_batch)


def make_samples(count, seed=5):
    return np.random.default_rng(seed).standard_normal(
        (count, 10)
    ).astype(np.float32)


@pytest.mark.smoke
class TestMicroBatcher:
    def test_full_batch_flushes_immediately(self):
        batcher = MicroBatcher(max_batch=3, max_latency_s=60.0)
        futures = [batcher.submit(i) for i in range(3)]
        batch = batcher.next_batch()
        assert [r.payload for r in batch] == [0, 1, 2]
        assert all(r.attempts == 1 for r in batch)
        assert futures[0] is batch[0].future

    def test_short_batch_flushes_after_max_latency(self):
        batcher = MicroBatcher(max_batch=8, max_latency_s=0.01)
        batcher.submit("only")
        start = time.monotonic()
        batch = batcher.next_batch()
        assert [r.payload for r in batch] == ["only"]
        # Flushed by the latency deadline, not a full batch.
        assert time.monotonic() - start < 1.0

    def test_requeue_goes_to_the_front_in_order(self):
        batcher = MicroBatcher(max_batch=4, max_latency_s=0.0)
        batcher.submit("a")
        batcher.submit("b")
        inflight = batcher.next_batch()
        batcher.submit("c")
        batcher.requeue(inflight)
        # Retried work leads, in its original order, ahead of arrivals.
        assert [r.payload for r in batcher.next_batch()] == ["a", "b", "c"]

    def test_attempts_bump_once_per_dispatch(self):
        batcher = MicroBatcher(max_batch=2, max_latency_s=0.0)
        batcher.submit("x")
        (request,) = batcher.next_batch()
        assert request.attempts == 1
        batcher.requeue([request])
        (again,) = batcher.next_batch()
        assert again is request
        assert again.attempts == 2

    def test_keyed_take_hands_out_each_keys_oldest(self):
        batcher = MicroBatcher(max_batch=3, max_latency_s=0.0, key=lambda p: p[0])
        for payload in ("a1", "a2", "b1", "a3", "c1", "b2", "d1"):
            batcher.submit(payload)
        first = batcher.next_batch()
        assert [r.payload for r in first] == ["a1", "b1", "c1"]
        assert all(r.attempts == 1 for r in first)
        # Skipped requests kept their queue order and were not dispatched.
        assert [r.payload for r in batcher._pending] == ["a2", "a3", "b2", "d1"]
        assert all(r.attempts == 0 for r in batcher._pending)
        # A requeued batch leads again, so every key's order is restored.
        batcher.requeue(first)
        again = batcher.next_batch()
        assert [r.payload for r in again] == ["a1", "b1", "c1"]
        assert all(r.attempts == 2 for r in again)
        assert [r.payload for r in batcher.next_batch()] == ["a2", "b2", "d1"]
        assert [r.payload for r in batcher.next_batch()] == ["a3"]

    def test_keyed_take_scans_a_bounded_prefix(self):
        batcher = MicroBatcher(max_batch=2, max_latency_s=0.0, key=lambda p: p[0])
        scanned = MicroBatcher.KEYED_SCAN * batcher.max_batch
        for index in range(1, scanned + 1):
            batcher.submit(f"a{index}")
        batcher.submit("b1")
        # b1 lies beyond the KEYED_SCAN * max_batch requests scanned.
        assert [r.payload for r in batcher.next_batch()] == ["a1"]
        assert [r.payload for r in batcher.next_batch()] == ["a2", "b1"]

    def test_keyed_queue_counts_its_requests_per_key(self):
        # A take stops once it holds every queued key, so the counts must
        # follow every submit, take, requeue and drain.
        batcher = MicroBatcher(max_batch=2, max_latency_s=0.0, key=lambda p: p[0])

        def assert_counts():
            pending = [request.key for request in batcher._pending]
            assert batcher._queued == {key: pending.count(key) for key in set(pending)}

        for payload in ("a1", "a2", "b1", "c1", "a3"):
            batcher.submit(payload)
        assert_counts()
        first = batcher.next_batch()
        assert [r.payload for r in first] == ["a1", "b1"]
        assert_counts()
        batcher.requeue(first)
        assert_counts()
        assert [r.payload for r in batcher.next_batch()] == ["a1", "b1"]
        assert [r.payload for r in batcher.next_batch()] == ["a2", "c1"]
        assert_counts()
        assert [r.payload for r in batcher.next_batch()] == ["a3"]
        assert batcher._queued == {}
        batcher.submit("d1")
        batcher.drain_pending()
        assert batcher._queued == {}

    def test_unkeyed_batches_are_plain_queue_order(self):
        batcher = MicroBatcher(max_batch=3, max_latency_s=0.0)
        for payload in ("a1", "a2", "b1", "a3"):
            batcher.submit(payload)
        assert [r.payload for r in batcher.next_batch()] == ["a1", "a2", "b1"]
        assert [r.payload for r in batcher.next_batch()] == ["a3"]

    def test_close_drains_then_returns_none(self):
        batcher = MicroBatcher(max_batch=8, max_latency_s=60.0)
        batcher.submit("queued")
        batcher.close()
        assert [r.payload for r in batcher.next_batch()] == ["queued"]
        assert batcher.next_batch() is None
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("late")


@pytest.mark.smoke
class TestRegistry:
    def test_sessions_are_fresh_per_call(self):
        # A factory returning a shared pair would hand two workers the
        # same membrane state; the registry must call it per session.
        calls = []

        def factory():
            session = make_session()
            calls.append(1)
            return session.model, session.manager

        registry = ModelRegistry().register("counted", factory)
        first = registry.session("counted")
        second = registry.session("counted")
        assert len(calls) == 2
        assert first.model is not second.model
        assert "counted" in registry
        assert registry.names() == ["counted"]

    def test_unknown_name_lists_registered(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError, match="no model 'ghost'"):
            registry.session("ghost")

    def test_load_checkpoint_round_trip(self, tmp_path):
        from repro.experiments import scaled_config
        from repro.experiments.runner import build_experiment_model
        from repro.optim import SGD
        from repro.sparse import SETSNN
        from repro.train.checkpoint import save_checkpoint

        config = scaled_config("cifar10", "convnet", "set", 0.7,
                               epochs=1, train_samples=16, timesteps=2)
        model = build_experiment_model(config)
        method = SETSNN(sparsity=0.7, total_iterations=8, update_frequency=4,
                        rng=np.random.default_rng(3))
        method.bind(model, SGD(model.parameters(), lr=0.1))
        save_checkpoint(tmp_path / "ckpt", model, method)

        registry = ModelRegistry().load_checkpoint(
            "restored", config, tmp_path / "ckpt", max_batch=4
        )
        session = registry.session("restored")
        assert session.manager.frozen
        # Masks survived the round-trip: the restored manager reports
        # the trained sparsity, not a dense model.
        assert abs(session.manager.sparsity() - method.sparsity()) < 1e-6
        sample = np.random.default_rng(6).standard_normal(
            (2, 3, config.image_size, config.image_size)
        ).astype(np.float32)
        out = session.predict(sample)
        assert out.shape == (2, config.num_classes)

    def test_session_is_frozen_and_batch_sized(self):
        session = make_session(max_batch=6)
        assert session.manager.frozen
        assert session.max_batch == 6
        routes = {entry["route"] for entry in session.dispatch_report()}
        assert routes <= {"csr", "dense"}
        report = session.storage_report()
        assert report["frozen"] is True


class TestBitIdenticalConcurrency:
    @pytest.mark.parametrize("max_batch", (1, 3, 8))
    def test_concurrent_clients_match_sequential(self, max_batch):
        samples = make_samples(17)
        reference_session = make_session(max_batch=max_batch)
        reference = np.stack(
            [reference_session.predict_one(sample) for sample in samples]
        )

        results = {}
        lock = threading.Lock()

        def client(indices):
            for index in indices:
                value = server.predict(samples[index], timeout=30.0)
                with lock:
                    results[index] = value

        with InferenceServer(
            lambda: make_session(max_batch=max_batch),
            workers=3, max_batch=max_batch, max_latency_s=0.002,
        ) as server:
            chunks = np.array_split(np.arange(len(samples)), 4)
            threads = [threading.Thread(target=client, args=(chunk,))
                       for chunk in chunks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        produced = np.stack([results[i] for i in range(len(samples))])
        # Bit-identical, not merely close: the padded canonical batch
        # shape makes the BLAS reduction order independent of how the
        # batcher grouped requests.
        assert np.array_equal(produced, reference)

    def test_workers_pull_through_a_next_batch_replaced_before_start(self):
        # Benchmarks trace the queue hand-off by swapping
        # ``server.batcher.next_batch`` on the instance before start();
        # the workers must call the replacement, not a bound original.
        server = InferenceServer(lambda: make_session(max_batch=2), workers=2,
                                 max_batch=2, max_latency_s=0.0)
        original = server.batcher.next_batch
        pulled = []

        def traced_next_batch():
            batch = original()
            pulled.append(batch)
            return batch

        server.batcher.next_batch = traced_next_batch
        samples = make_samples(5)
        with server:
            for sample in samples:
                server.predict(sample, timeout=30.0)
        taken = [request for batch in pulled if batch for request in batch]
        assert len(taken) == len(samples)
        assert sum(batch is None for batch in pulled) == server.workers

    def test_batched_predict_matches_sequential(self):
        session = make_session(max_batch=4)
        samples = make_samples(11)
        batched = session.predict(samples)
        sequential = np.stack([session.predict_one(s) for s in samples])
        assert np.array_equal(batched, sequential)


class _FlakySessionFactory:
    """Builds sessions whose first ``crashes`` predictions raise."""

    def __init__(self, crashes=1, max_batch=4):
        self.remaining = crashes
        self.max_batch = max_batch
        self.lock = threading.Lock()

    def __call__(self):
        real = make_session(max_batch=self.max_batch)
        outer = self

        class Flaky:
            def predict(self, inputs):
                with outer.lock:
                    if outer.remaining > 0:
                        outer.remaining -= 1
                        raise RuntimeError("injected worker crash")
                return real.predict(inputs)

        return Flaky()


class TestCrashRecovery:
    @pytest.fixture(autouse=True)
    def quiet_thread_excepthook(self, monkeypatch):
        # Worker deaths re-raise on purpose (the supervisor watches the
        # thread); keep the expected tracebacks out of the test output.
        monkeypatch.setattr(threading, "excepthook", lambda args: None)

    def test_killed_worker_requests_are_redispatched(self):
        samples = make_samples(9)
        reference_session = make_session(max_batch=4)
        reference = np.stack(
            [reference_session.predict_one(sample) for sample in samples]
        )
        with InferenceServer(
            _FlakySessionFactory(crashes=1), workers=1, max_batch=4,
            max_latency_s=0.002, supervise_interval_s=0.002,
        ) as server:
            futures = [server.submit(sample) for sample in samples]
            produced = np.stack([f.result(timeout=30.0) for f in futures])
            stats = server.stats()
        assert np.array_equal(produced, reference)
        assert stats["restarts"] >= 1
        assert stats["failed"] == 0
        assert stats["completed"] == len(samples)

    def test_exhausted_retry_budget_fails_the_future(self):
        with InferenceServer(
            _FlakySessionFactory(crashes=100), workers=1, max_batch=2,
            max_attempts=2, max_restarts=100,
            max_latency_s=0.002, supervise_interval_s=0.002,
        ) as server:
            future = server.submit(make_samples(1)[0])
            with pytest.raises(RuntimeError, match="injected worker crash"):
                future.result(timeout=30.0)
            stats = server.stats()
        assert stats["failed"] >= 1

    def test_counters_hold_under_concurrent_crashes(self):
        # More workers than cores and a tiny switch interval: a counter
        # update lost between threads breaks the sums below.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InferenceServer(
                _FlakySessionFactory(crashes=6, max_batch=2), workers=8,
                max_batch=2, max_latency_s=0.0, max_restarts=6,
                supervise_interval_s=0.001,
            ) as server:
                futures = [server.submit(sample) for sample in make_samples(64)]
                wait(futures, timeout=30.0)
                deadline = time.monotonic() + 30.0
                while server.stats()["restarts"] < 6 and time.monotonic() < deadline:
                    time.sleep(0.001)  # every crashed worker gets replaced
        finally:
            sys.setswitchinterval(interval)
        stats = server.stats()
        assert all(future.done() for future in futures)
        assert stats["submitted"] == 64
        assert stats["completed"] + stats["failed"] == 64
        assert stats["completed"] == sum(f.exception() is None for f in futures)
        assert stats["restarts"] == 6
        assert stats["workers_alive"] == 0

    def test_restart_budget_exhaustion_fails_queued_requests(self):
        def doomed_factory():
            raise RuntimeError("factory can never build a session")

        server = InferenceServer(
            doomed_factory, workers=1, max_restarts=2,
            supervise_interval_s=0.002,
        )
        server.start()
        future = server.submit(make_samples(1)[0])
        with pytest.raises(RuntimeError, match="gave up after 2"):
            future.result(timeout=30.0)
        server.stop(drain=False)

    def test_stop_without_drain_fails_leftovers(self):
        batcher_blocker = threading.Event()

        def slow_factory():
            session = make_session()

            class Slow:
                def predict(self, inputs):
                    batcher_blocker.wait(5.0)
                    return session.predict(inputs)

            return Slow()

        server = InferenceServer(
            slow_factory, workers=1, max_batch=1, max_latency_s=0.0
        )
        server.start()
        time.sleep(0.05)  # let the worker block on its first batch
        futures = [server.submit(sample) for sample in make_samples(6)]
        server.stop(drain=False, timeout=1.0)
        batcher_blocker.set()
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=10.0)
                outcomes.append("ok")
            except RuntimeError:
                outcomes.append("stopped")
        # Everything still queued when stop(drain=False) ran must have
        # been failed, not silently dropped.
        assert "stopped" in outcomes
        assert all(done in ("ok", "stopped") for done in outcomes)
