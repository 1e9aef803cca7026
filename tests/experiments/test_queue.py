"""Durable job queue: claims, leases, retries, crash recovery."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    JobQueue,
    QueueWorker,
    job_id_for,
    manifest_to_outcome,
    outcome_to_manifest,
    run_experiment,
    run_sweep,
    scaled_config,
    sweep_configs,
)
from repro.experiments.queue import _worker_main

FAST = dict(epochs=1, train_samples=32, test_samples=16, timesteps=2,
            batch_size=16, update_frequency=1)

RESUME = dict(epochs=3, train_samples=48, test_samples=16, timesteps=2,
              batch_size=16, update_frequency=2, initial_sparsity=0.5)


def fast_config(method="ndsnn", **overrides):
    params = {**FAST, **overrides}
    return scaled_config("cifar10", "convnet", method, 0.9, **params)


def fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


class TestJobIds:
    @pytest.mark.smoke
    def test_deterministic_and_distinct(self):
        a = fast_config("ndsnn")
        b = fast_config("set")
        assert job_id_for(a, 0) == job_id_for(a, 0)
        assert job_id_for(a, 0) != job_id_for(b, 0)
        assert job_id_for(a, 0) != job_id_for(a, 1)


class TestSubmitAndClaim:
    @pytest.mark.smoke
    def test_submit_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        configs = [fast_config("dense"), fast_config("set")]
        first = queue.submit(configs)
        second = queue.submit(configs)
        assert first == second
        assert queue.status().pending == 2

    @pytest.mark.smoke
    def test_claim_moves_token_and_writes_lease(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([fast_config()])
        job = queue.claim("worker-a")
        assert job is not None and job.job_id == job_id
        assert job.attempt == 1
        assert queue.status().pending == 0
        assert queue.status().claimed == 1
        lease = queue._read_lease(job_id)
        assert lease["worker"] == "worker-a"
        assert lease["expires_at"] > time.time()

    @pytest.mark.smoke
    def test_each_job_claimed_exactly_once(self, tmp_path):
        queue_a = JobQueue(tmp_path)
        queue_b = JobQueue(tmp_path)  # second handle, same spool
        queue_a.submit([fast_config("dense"), fast_config("set")])
        claims = [queue_a.claim("a"), queue_b.claim("b"),
                  queue_a.claim("a"), queue_b.claim("b")]
        claimed_ids = [job.job_id for job in claims if job is not None]
        assert len(claimed_ids) == 2
        assert len(set(claimed_ids)) == 2
        assert queue_a.claim("a") is None

    @pytest.mark.smoke
    def test_submit_restores_token_lost_mid_submit(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([fast_config()])
        os.remove(tmp_path / "pending" / f"{job_id}.json")
        assert queue.submit([fast_config()]) == [job_id]
        assert queue.status().pending == 1

    @pytest.mark.smoke
    def test_resubmit_never_resets_a_retry_token(self, tmp_path):
        """Re-running a sweep against a live spool keeps attempt counts."""
        queue = JobQueue(tmp_path, lease_seconds=0.05, backoff_seconds=0.01)
        (job_id,) = queue.submit([fast_config()])
        queue.claim("crashy")
        time.sleep(0.06)
        assert queue.reap_expired() == [job_id]  # token back at attempt 2
        assert queue.submit([fast_config()]) == [job_id]
        token = json.loads((tmp_path / "pending" / f"{job_id}.json").read_text())
        assert token["attempt"] == 2  # the fresh attempt=1 token lost
        assert not list((tmp_path / "pending").glob("*.new-*"))


class TestLeaseExpiryAndRetry:
    @pytest.mark.smoke
    @pytest.mark.parametrize("option, value", [
        ("lease_seconds", 0.0), ("max_attempts", 0), ("backoff_seconds", -1.0),
    ])
    def test_rejects_out_of_range_knobs(self, tmp_path, option, value):
        with pytest.raises(ValueError, match=option):
            JobQueue(tmp_path, **{option: value})

    @pytest.mark.smoke
    def test_expired_lease_is_reaped_with_backoff(self, tmp_path):
        queue = JobQueue(tmp_path, lease_seconds=0.2, backoff_seconds=0.5)
        (job_id,) = queue.submit([fast_config()])
        job = queue.claim("doomed")
        assert job is not None
        time.sleep(0.25)
        assert queue.reap_expired() == [job_id]
        assert queue.status().pending == 1
        token = json.loads((tmp_path / "pending" / f"{job_id}.json").read_text())
        assert token["attempt"] == 2
        assert token["not_before"] > time.time()
        # Inside the backoff window nothing is claimable ...
        assert queue.claim("eager") is None
        # ... and afterwards the job comes back.
        time.sleep(0.55)
        retried = queue.claim("patient")
        assert retried is not None and retried.attempt == 2

    @pytest.mark.smoke
    def test_live_lease_is_not_reaped(self, tmp_path):
        queue = JobQueue(tmp_path, lease_seconds=30.0)
        queue.submit([fast_config()])
        job = queue.claim("healthy")
        job.heartbeat()
        assert queue.reap_expired() == []
        assert queue.status().claimed == 1

    @pytest.mark.smoke
    def test_exhausted_attempts_land_in_failed(self, tmp_path):
        queue = JobQueue(tmp_path, lease_seconds=0.05, max_attempts=2,
                         backoff_seconds=0.01)
        (job_id,) = queue.submit([fast_config()])
        for _ in range(2):
            time.sleep(0.06)
            deadline = time.time() + 2.0
            while queue.claim("crashy") is None:
                assert time.time() < deadline, "job never became claimable"
                time.sleep(0.02)
            time.sleep(0.06)
        assert queue.reap_expired() == [job_id]
        assert queue.status().failed == 1
        assert job_id in queue.failures()
        with pytest.raises(RuntimeError, match="failed"):
            queue.wait([job_id], timeout=1.0)

    @pytest.mark.smoke
    def test_worker_exception_requeues_then_fails(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2, backoff_seconds=0.01)
        broken = fast_config().scaled(method="blackhole")  # unknown method
        (job_id,) = queue.submit([broken])
        worker = QueueWorker(queue, poll_seconds=0.01)
        assert worker.run(max_jobs=1) == 0  # failures are not "completed"
        assert worker.jobs_failed == 1
        assert queue.status().pending == 1  # first failure retries
        time.sleep(0.02)
        assert worker.run(max_jobs=1) == 0
        assert worker.jobs_failed == 2
        assert queue.status().failed == 1
        assert "blackhole" in queue.failures()[job_id]

    @pytest.mark.smoke
    def test_stale_owner_fail_cannot_yank_successor_claim(self, tmp_path):
        """A reaped worker's fail() must not disturb the re-claimant."""
        queue = JobQueue(tmp_path, lease_seconds=0.1, backoff_seconds=0.01)
        queue.submit([fast_config()])
        stale = queue.claim("worker-a")
        time.sleep(0.12)  # worker-a stalls; its lease lapses
        assert queue.reap_expired() == [stale.job_id]
        time.sleep(0.02)
        fresh = queue.claim("worker-b")
        assert fresh is not None and fresh.attempt == 2
        stale.fail("RuntimeError: woke up and errored")  # must be a no-op
        status = queue.status()
        assert status.claimed == 1 and status.pending == 0 and status.failed == 0
        assert queue._read_lease(fresh.job_id)["worker"] == "worker-b"

    @pytest.mark.smoke
    def test_requeue_orphan_is_recovered(self, tmp_path):
        """A reaper killed between its two renames must not lose the job."""
        queue = JobQueue(tmp_path, lease_seconds=0.1, backoff_seconds=0.01)
        (job_id,) = queue.submit([fast_config()])
        queue.claim("doomed")
        # Simulate a reaper dying right after its first rename.
        os.rename(tmp_path / "claimed" / f"{job_id}.json",
                  tmp_path / "requeue" / f"{job_id}.json")
        assert queue.reap_expired() == []  # fresh orphan: grace period
        time.sleep(0.12)
        assert queue.reap_expired() == [job_id]
        assert queue.status().pending == 1
        rescued = queue.claim("rescuer")
        assert rescued is not None and rescued.job_id == job_id

    @pytest.mark.smoke
    def test_result_wins_over_failed_token(self, tmp_path):
        """A stalled owner finishing after a failed-for-good re-claimant
        leaves exactly one terminal state: done, with the result kept."""
        queue = JobQueue(tmp_path, lease_seconds=0.1, backoff_seconds=0.01)
        (job_id,) = queue.submit([fast_config("dense")])
        stalled = queue.claim("stalled")
        # A re-claimant burned the last attempt while we stalled.
        from repro.utils import save_json_atomic

        save_json_atomic(tmp_path / "failed" / f"{job_id}.json",
                         {"job_id": job_id, "attempt": 3, "error": "boom"})
        outcome = run_experiment(stalled.config)
        stalled.complete(outcome_to_manifest(outcome))
        status = queue.status()
        assert status.results == 1 and status.done == 1 and status.failed == 0
        assert queue.job_states()[job_id]["state"] == "done"
        assert queue.failures() == {}

    @pytest.mark.smoke
    def test_reap_retires_failed_token_when_result_exists(self, tmp_path):
        queue = JobQueue(tmp_path)
        (job_id,) = queue.submit([fast_config("dense")])
        job = queue.claim("worker")
        outcome = run_experiment(job.config)
        from repro.utils import save_json_atomic

        # Result written, then the worker died before _finalize; later a
        # re-claimant failed for good.  reap must settle this to done.
        save_json_atomic(queue.result_path(job_id), outcome_to_manifest(outcome))
        os.remove(tmp_path / "claimed" / f"{job_id}.json")
        save_json_atomic(tmp_path / "failed" / f"{job_id}.json",
                         {"job_id": job_id, "attempt": 3, "error": "boom"})
        assert job_id in queue.reap_expired()
        status = queue.status()
        assert status.failed == 0 and status.done == 1 and status.results == 1

    @pytest.mark.smoke
    def test_heartbeat_renews_within_long_epochs(self, tmp_path):
        """Per-step heartbeats keep a lease alive when epochs are long."""
        from repro.experiments.queue import _LeaseHeartbeat

        queue = JobQueue(tmp_path, lease_seconds=0.09)
        queue.submit([fast_config()])
        job = queue.claim("steady")
        heartbeat = _LeaseHeartbeat(job)
        before = queue._read_lease(job.job_id)["expires_at"]
        time.sleep(0.04)  # > lease/3: the next step must renew
        heartbeat.on_step_end(trainer=None, iteration=0)
        after = queue._read_lease(job.job_id)["expires_at"]
        assert after > before
        heartbeat.on_step_end(trainer=None, iteration=1)  # within interval: no write
        assert queue._read_lease(job.job_id)["expires_at"] == after


class TestManifests:
    @pytest.mark.smoke
    def test_outcome_manifest_roundtrip(self):
        config = fast_config("dense")
        outcome = run_experiment(config)
        manifest = outcome_to_manifest(outcome)
        rebuilt = manifest_to_outcome(json.loads(json.dumps(manifest)))
        assert rebuilt.config == config
        assert rebuilt.final_accuracy == outcome.final_accuracy
        assert [s.as_dict() for s in rebuilt.history] == [
            s.as_dict() for s in outcome.history
        ]

    def test_completion_retires_job_and_checkpoints(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([fast_config("dense")])
        worker = QueueWorker(queue)
        assert worker.run() == 1
        status = queue.status()
        assert status.results == 1 and status.done == 1 and status.in_flight == 0
        assert not list((tmp_path / "checkpoints").iterdir())
        assert not list((tmp_path / "leases").iterdir())

    def test_existing_result_short_circuits_reclaim(self, tmp_path):
        queue = JobQueue(tmp_path, lease_seconds=0.1)
        (job_id,) = queue.submit([fast_config("dense")])
        job = queue.claim("slowpoke")
        outcome = run_experiment(job.config)
        # Simulate: result written, then the worker dies before retiring
        # the token; the next claimant must finalize, not re-run.
        from repro.utils import save_json_atomic

        save_json_atomic(queue.result_path(job_id), outcome_to_manifest(outcome))
        time.sleep(0.15)
        assert queue.claim("second") is None  # finalized, nothing to run
        status = queue.status()
        assert status.results == 1 and status.done == 1 and status.in_flight == 0
        # Reap-finalize cleans scratch just like the normal path.
        assert not list((tmp_path / "checkpoints").iterdir())
        assert not list((tmp_path / "leases").iterdir())


class TestRunSweepQueued:
    @pytest.mark.smoke
    def test_empty_grid_returns_at_once(self, tmp_path, monkeypatch):
        """No spool, no worker process and no wait for an empty grid."""
        import repro.experiments.queue as queue_module

        def no_processes(method):
            raise AssertionError("an empty sweep started a process")

        monkeypatch.setattr(queue_module.multiprocessing, "get_context", no_processes)
        spool = tmp_path / "spool"
        start = time.perf_counter()
        assert run_sweep([], jobs=2, spool=spool) == []
        assert run_sweep([], jobs=2) == []
        assert time.perf_counter() - start < 1.0
        assert not spool.exists()

    def test_queue_matches_sequential_eight_configs(self, tmp_path):
        """>= 8 configs through the queue, bit-identical to in-process."""
        base = fast_config("ndsnn")
        configs = sweep_configs(
            base, ["dense", "ndsnn", "set", "rigl"], sparsities=[0.8, 0.9]
        )
        assert len(configs) == 8
        sequential = run_sweep(configs, jobs=1)
        queued = run_sweep(configs, jobs=3, spool=tmp_path / "spool")
        assert [o.config for o in queued] == [o.config for o in sequential]
        for want, got in zip(sequential, queued):
            assert got.final_accuracy == want.final_accuracy
            assert got.best_accuracy == want.best_accuracy
            assert got.final_sparsity == want.final_sparsity
            assert [s.as_dict() for s in got.history] == [
                s.as_dict() for s in want.history
            ]

    def test_workers_share_the_spools_calibration(self, tmp_path, monkeypatch):
        """Every claimant of a spool adopts the cutoffs measured first."""
        import fcntl

        import repro.sparse.dispatch as dispatch

        log = tmp_path / "measured.log"
        lock = tmp_path / "lookup.lock"
        real_get_cutoff = dispatch.get_cutoff

        def logging_measure(rows, cols, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{rows}x{cols}\n")
            return {"cutoff": 0.5, "buckets": {}}

        def serialized_get_cutoff(rows, cols, measure):
            # Two workers looking a shape up at the same instant can
            # both miss the write-once cache and both measure; holding
            # a lock over the lookup removes that race, so one
            # measurement per shape shows that the workers share a cache.
            with open(lock, "w") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                return real_get_cutoff(rows, cols, measure=measure)

        monkeypatch.delenv(dispatch.CALIBRATION_ENV, raising=False)
        monkeypatch.setattr(dispatch, "measure_crossover", logging_measure)
        monkeypatch.setattr(dispatch, "get_cutoff", serialized_get_cutoff)
        spool = tmp_path / "spool"
        configs = sweep_configs(fast_config("ndsnn"), ["ndsnn", "set", "rigl", "gmp"])
        run_sweep(configs, jobs=2, spool=spool)
        measured = log.read_text().split()
        assert measured and len(measured) == len(set(measured))
        published = sorted(path.name for path in (spool / "calibration").iterdir())
        assert published == sorted(f"calibration-{shape}.json" for shape in measured)
        assert dispatch.CALIBRATION_ENV not in os.environ

        # A later in-process worker on a new job measures nothing.
        log.write_text("")
        queue = JobQueue(spool)
        queue.submit([fast_config("set", seed=7)])
        assert QueueWorker(queue, poll_seconds=0.01).run() == 1
        assert log.read_text() == ""
        assert dispatch.CALIBRATION_ENV not in os.environ


class TestCrashRecovery:
    """ISSUE satellite: SIGKILL a worker mid-job, re-claim, resume."""

    def test_killed_worker_job_resumes_to_golden_result(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **RESUME)
        golden = run_experiment(config)

        spool = tmp_path / "spool"
        queue = JobQueue(spool, lease_seconds=0.5, backoff_seconds=0.05)
        (job_id,) = queue.submit([config])

        # A worker that os._exit()s (no cleanup, exactly like kill -9)
        # after finishing — and checkpointing — its first epoch.
        process = fork_context().Process(
            target=_worker_main, args=(str(spool), 0.5, 3, 0.05, 1, 1)
        )
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 113  # died mid-job, did not complete

        status = queue.status()
        assert status.claimed == 1 and status.results == 0
        checkpoint = spool / "checkpoints" / f"{job_id}.json"
        assert checkpoint.exists(), "crashed worker left no resumable state"
        epochs_done = json.loads(checkpoint.read_text())["epochs_completed"]
        assert epochs_done == 1

        # The lease expires, the job is re-claimed ...
        time.sleep(0.6)
        assert queue.reap_expired() == [job_id]
        token = json.loads((spool / "pending" / f"{job_id}.json").read_text())
        assert token["attempt"] == 2
        time.sleep(0.1)

        # ... and the resumed run completes bit-identically to golden.
        rescuer = QueueWorker(queue, poll_seconds=0.01)
        assert rescuer.run() == 1
        manifests = queue.results([job_id])
        assert list(manifests) == [job_id]  # exactly one manifest, no dupes
        outcome = manifest_to_outcome(manifests[job_id])
        assert outcome.final_accuracy == golden.final_accuracy
        assert outcome.final_sparsity == golden.final_sparsity
        assert [s.as_dict() for s in outcome.history] == [
            s.as_dict() for s in golden.history
        ]
        assert queue.status().in_flight == 0

    def test_resumed_job_keeps_checkpointed_dispatch_decisions(
        self, tmp_path, monkeypatch
    ):
        """Satellite: a crashed job resumed under *different* calibration
        must restore the checkpointed table and finish byte-identical."""
        import repro.sparse.dispatch as dispatch

        def calibration_world(directory, cutoff):
            monkeypatch.setenv(dispatch.CALIBRATION_ENV, str(directory))
            dispatch.clear_process_cache()
            monkeypatch.setattr(
                dispatch, "measure_crossover",
                lambda rows, cols, **kwargs: {"cutoff": cutoff, "buckets": {}},
            )

        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **RESUME)
        # World A: CSR wins everywhere.
        calibration_world(tmp_path / "calib-a", 0.99)
        golden = run_experiment(config)

        spool = tmp_path / "spool"
        queue = JobQueue(spool, lease_seconds=0.5, backoff_seconds=0.05)
        (job_id,) = queue.submit([config])
        # The forked worker inherits world A and dies after epoch 1.
        crasher = fork_context().Process(
            target=_worker_main, args=(str(spool), 0.5, 3, 0.05, 1, 1)
        )
        crasher.start()
        crasher.join(timeout=60)
        assert crasher.exitcode == 113
        checkpoint_meta = json.loads(
            (spool / "checkpoints" / f"{job_id}.json").read_text()
        )
        assert set(checkpoint_meta["calibration"].values()) == {0.99}

        time.sleep(0.6)
        assert queue.reap_expired() == [job_id]
        time.sleep(0.1)

        # World B: fresh measurement would route everything dense; the
        # restored table must win so epochs 2-3 still run CSR kernels.
        calibration_world(tmp_path / "calib-b", 0.0)
        rescuer = QueueWorker(queue, poll_seconds=0.01)
        assert rescuer.run() == 1
        outcome = manifest_to_outcome(queue.results([job_id])[job_id])
        assert [s.as_dict() for s in outcome.history] == [
            s.as_dict() for s in golden.history
        ]
        dispatch.clear_process_cache()

    def test_sweep_survives_all_workers_dying(self, tmp_path):
        """run_sweep drains in-process if its workers all crash."""
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **RESUME)
        golden = run_experiment(config)
        spool = tmp_path / "spool"
        queue = JobQueue(spool, lease_seconds=0.5, backoff_seconds=0.05)
        queue.submit([config])
        crasher = fork_context().Process(
            target=_worker_main, args=(str(spool), 0.5, 3, 0.05, 1, 1)
        )
        crasher.start()
        crasher.join(timeout=60)
        assert crasher.exitcode == 113
        time.sleep(0.6)

        (outcome,) = run_sweep([config], jobs=1, spool=spool,
                               lease_seconds=0.5, backoff_seconds=0.05)
        assert outcome.final_accuracy == golden.final_accuracy
        assert [s.as_dict() for s in outcome.history] == [
            s.as_dict() for s in golden.history
        ]


class TestWorkerDrainSemantics:
    @pytest.mark.smoke
    def test_empty_spool_is_idle_not_drained(self, tmp_path):
        """A worker started before the sweep submits must wait, not exit."""
        queue = JobQueue(tmp_path)
        worker = QueueWorker(queue, poll_seconds=0.01)
        start = time.time()
        assert worker.run(idle_timeout=0.1) == 0
        assert time.time() - start >= 0.1

    @pytest.mark.smoke
    def test_run_drains_through_a_poison_job(self, tmp_path):
        """An unbounded run() retires a poison job and exits clean."""
        queue = JobQueue(tmp_path, max_attempts=2, backoff_seconds=0.01)
        queue.submit([fast_config().scaled(method="blackhole")])
        worker = QueueWorker(queue, poll_seconds=0.01)
        assert worker.run() == 0
        assert worker.jobs_failed == 2
        status = queue.status()
        assert status.failed == 1 and status.in_flight == 0

    @pytest.mark.smoke
    def test_drained_spool_exits_immediately(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([fast_config("dense")])
        QueueWorker(queue, poll_seconds=0.01).run()
        start = time.time()
        # A second worker on the finished spool exits without a timeout.
        assert QueueWorker(queue, poll_seconds=0.01).run() == 0
        assert time.time() - start < 5.0


class TestStatusReporting:
    @pytest.mark.smoke
    def test_job_states_detail(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit([fast_config("dense"), fast_config("set")])
        queue.claim("inspector")
        states = queue.job_states()
        assert set(states) == set(ids)
        assert sorted(entry["state"] for entry in states.values()) == [
            "claimed", "pending",
        ]
        claimed = next(e for e in states.values() if e["state"] == "claimed")
        assert claimed["worker"] == "inspector"
        assert claimed["lease_remaining"] > 0
