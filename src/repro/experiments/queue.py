"""Durable, filesystem-backed job queue: the one parallel sweep path.

:func:`run_sweep` runs a config grid in-process, one
``run_experiment`` after another, or, given a ``spool`` or ``jobs >
1``, through this queue: it submits the grid and starts ``jobs`` worker
processes, and further workers on any host that shares the filesystem
(NFS scratch, a cluster home directory, one laptop's ``/tmp``) can join
with ``repro worker --spool``.  There is no broker and no daemon: every
piece of queue state is a file in a spool directory, and every state
transition is an atomic ``os.rename``::

    spool/
      jobs/<id>.json         immutable job spec (the ExperimentConfig)
      pending/<id>.json      claim token: attempt counter + not-before
      claimed/<id>.json      the same token, owned by exactly one worker
      requeue/<id>.json      transient: a token being reaped back
      leases/<id>.json       worker heartbeat with an expiry timestamp
      checkpoints/<id>.*     resumable training state, one per epoch
      results/<id>.json      one manifest entry per finished job
      done/<id>.json         retired tokens of completed jobs
      failed/<id>.json       tokens of jobs that exhausted max_attempts
      calibration/           write-once dispatch cutoffs every job adopts

**Claiming** is ``rename(pending/x -> claimed/x)``: on POSIX the rename
succeeds for exactly one claimant, so no locks are needed.  The winner
immediately writes a *lease* with an expiry ``lease_seconds`` in the
future and refreshes it at every epoch boundary while training.

**Crash recovery**: when a worker is SIGKILLed its lease stops being
renewed.  Any other process (a worker's claim loop, the scheduler, or
``repro sweep-status``) *reaps* expired claims — rename the token to
``requeue/`` (the mutual-exclusion step), bump its attempt counter,
stamp an exponential-backoff ``not_before``, and rename it back to
``pending/``.  Tokens that exhaust ``max_attempts`` land in ``failed/``.
Because the worker checkpointed the complete training state each epoch
(see :func:`~repro.train.checkpoint.save_training_state`), the next
claimant *resumes* from the last finished epoch rather than recomputing
— and since the checkpoint restores every RNG stream bit for bit, the
resumed result is identical to an uninterrupted run's.

**Exactly-one manifest**: results are written tmp-then-rename, and a
claimant that finds a result manifest already present finalises the job
instead of re-running it.  In the worst race (a stalled-but-alive
worker is reaped, then both it and the re-claimant finish) both writers
produce byte-identical manifests — every job is a deterministic
function of its config — so the manifest set always ends up with
exactly one entry per job, no duplicates and no holes.

**Shared calibration**: under ``auto`` execution a job measures the
dense-vs-CSR dispatch cutoff of each layer shape.  A worker runs every
job with ``REPRO_CALIBRATION_DIR`` at ``spool/calibration`` (unless the
variable already names a directory), so the first claimant to measure a
shape publishes its cutoff and every other job, on any host, adopts it:
all jobs of a sweep route their layers alike, whatever each host's
timing.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..sparse.dispatch import CALIBRATION_ENV
from ..train import EpochStats
from ..train.hooks import TrainerCallback
from ..utils import load_json, publish_once, save_json_atomic
from .config import ExperimentConfig
from .runner import ExperimentOutcome, run_experiment

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_SECONDS = 1.0

_STATE_DIRS = (
    "jobs",
    "pending",
    "claimed",
    "requeue",
    "leases",
    "checkpoints",
    "results",
    "done",
    "failed",
    "calibration",
)


def job_id_for(config: ExperimentConfig, index: int) -> str:
    """Deterministic job id: grid position, method, and a config hash.

    The id is stable across resubmissions of the same grid, which is
    what makes ``submit`` idempotent (re-running an interrupted
    ``repro sweep`` against the same spool picks up where it left off).
    """
    payload = json.dumps(config.to_dict(), sort_keys=True).encode()
    digest = hashlib.sha1(payload).hexdigest()[:8]
    return f"job{index:04d}-{config.method}-{digest}"


def outcome_to_manifest(outcome) -> Dict:
    """Serialize an ExperimentOutcome as a result-manifest entry."""
    return {
        "config": outcome.config.to_dict(),
        "final_accuracy": float(outcome.final_accuracy),
        "best_accuracy": float(outcome.best_accuracy),
        "final_sparsity": float(outcome.final_sparsity),
        "history": [stats.as_dict() for stats in outcome.history],
    }


def manifest_to_outcome(manifest: Dict):
    """Rebuild an ExperimentOutcome from a result-manifest entry.

    JSON serializes floats with shortest-roundtrip ``repr``, so the
    rebuilt outcome compares equal, value for value, with the original.
    """
    return ExperimentOutcome(
        config=ExperimentConfig.from_dict(manifest["config"]),
        final_accuracy=manifest["final_accuracy"],
        best_accuracy=manifest["best_accuracy"],
        final_sparsity=manifest["final_sparsity"],
        history=[EpochStats(**entry) for entry in manifest.get("history", [])],
    )


@dataclass
class QueueStatus:
    """Spool-directory census (one ``scandir`` per state)."""

    jobs: int
    pending: int
    claimed: int
    requeue: int
    results: int
    done: int
    failed: int

    @property
    def in_flight(self) -> int:
        """Jobs not yet resolved: a drained queue has zero of these."""
        return self.pending + self.claimed + self.requeue


@dataclass
class ClaimedJob:
    """A job owned by one worker, from claim to completion."""

    queue: "JobQueue"
    job_id: str
    config: ExperimentConfig
    attempt: int
    worker_id: str

    @property
    def checkpoint_path(self) -> Path:
        """Spool-resident training-state path shared by all claimants."""
        return self.queue.spool / "checkpoints" / self.job_id

    def heartbeat(self) -> None:
        """Renew the lease; called at every epoch boundary."""
        self.queue._write_lease(self.job_id, self.worker_id)

    def complete(self, manifest: Dict) -> None:
        """Write the result manifest (atomically) and retire the job."""
        save_json_atomic(self.queue.result_path(self.job_id), manifest)
        self.queue._finalize(self.job_id)

    def fail(self, error: str) -> None:
        """Report a job error: requeue with backoff, or fail for good."""
        self.queue._handle_failure(self.job_id, self.attempt, error, self.worker_id)


class JobQueue:
    """The spool-directory queue: submit, claim, reap, inspect.

    Safe to instantiate from any number of processes on any number of
    hosts sharing the spool path; all coordination happens through
    atomic renames inside the directory.
    """

    def __init__(
        self,
        spool: Union[str, Path],
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        self.spool = Path(spool)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.backoff_seconds = float(backoff_seconds)
        for name in _STATE_DIRS:
            (self.spool / name).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _state_path(self, state: str, job_id: str) -> Path:
        return self.spool / state / f"{job_id}.json"

    def job_path(self, job_id: str) -> Path:
        return self._state_path("jobs", job_id)

    def result_path(self, job_id: str) -> Path:
        return self._state_path("results", job_id)

    def _job_ids(self, state: str) -> List[str]:
        directory = self.spool / state
        return sorted(
            entry.name[: -len(".json")]
            for entry in directory.glob("*.json")
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, configs: Iterable[ExperimentConfig]) -> List[str]:
        """Enqueue a config grid; returns job ids in input order.

        Idempotent: a job whose id already exists anywhere in the spool
        is left alone, and a job file orphaned by a crash mid-submit
        (spec written, token not) gets its pending token restored.
        """
        job_ids = []
        for index, config in enumerate(configs):
            job_id = job_id_for(config, index)
            job_ids.append(job_id)
            if not self.job_path(job_id).exists():
                save_json_atomic(
                    self.job_path(job_id),
                    {"job_id": job_id, "config": config.to_dict()},
                )
            if self._token_state(job_id) is None and not self.result_path(job_id).exists():
                self._publish_fresh_token(job_id)
        return job_ids

    def _publish_fresh_token(self, job_id: str) -> None:
        """Create ``pending/<id>.json`` at attempt 1 — but never clobber.

        Uses :func:`~repro.utils.publish_once` rather than a rename, so a
        reaper racing us with a requeue->pending move of the *real*
        token (attempt counter, backoff stamp) always wins; a plain
        atomic write here could reset a crashing job's attempt count
        every time the sweep is re-submitted against a live spool.
        """
        publish_once(self._state_path("pending", job_id),
                     {"job_id": job_id, "attempt": 1, "not_before": 0.0})

    def _token_state(self, job_id: str) -> Optional[str]:
        for state in ("pending", "claimed", "requeue", "done", "failed"):
            if self._state_path(state, job_id).exists():
                return state
        return None

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def _lease_path(self, job_id: str) -> Path:
        return self._state_path("leases", job_id)

    def _write_lease(self, job_id: str, worker_id: str) -> None:
        now = time.time()
        save_json_atomic(
            self._lease_path(job_id),
            {
                "worker": worker_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "renewed_at": now,
                "expires_at": now + self.lease_seconds,
            },
        )

    def _read_lease(self, job_id: str) -> Optional[Dict]:
        try:
            return load_json(self._lease_path(job_id))
        except (OSError, json.JSONDecodeError):
            return None

    def _remove_lease(self, job_id: str) -> None:
        try:
            os.remove(self._lease_path(job_id))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[ClaimedJob]:
        """Claim one runnable job, or return None if nothing is eligible.

        Reaps expired leases first, then walks the pending tokens in id
        order; the atomic rename into ``claimed/`` is the race arbiter.
        Tokens inside their retry-backoff window are skipped.
        """
        self.reap_expired()
        now = time.time()
        for job_id in self._job_ids("pending"):
            token_path = self._state_path("pending", job_id)
            try:
                token = load_json(token_path)
            except (OSError, json.JSONDecodeError):
                continue  # claimed (or rewritten) under our feet
            if float(token.get("not_before", 0.0)) > now:
                continue
            claimed_path = self._state_path("claimed", job_id)
            try:
                os.rename(token_path, claimed_path)
            except OSError:
                continue  # another worker won this token
            self._write_lease(job_id, worker_id)
            if self.result_path(job_id).exists():
                # A previous owner crashed after writing its manifest:
                # nothing left to compute, just retire the token.
                self._finalize(job_id)
                continue
            spec = load_json(self.job_path(job_id))
            return ClaimedJob(
                queue=self,
                job_id=job_id,
                config=ExperimentConfig.from_dict(spec["config"]),
                attempt=int(token.get("attempt", 1)),
                worker_id=worker_id,
            )
        return None

    # ------------------------------------------------------------------
    # Reaping / retry
    # ------------------------------------------------------------------
    def reap_expired(self) -> List[str]:
        """Requeue claimed jobs whose lease has lapsed.

        Runs opportunistically from every claim loop and from
        ``sweep-status``; safe (and useful) to call from any process.
        Returns the ids whose state changed.
        """
        now = time.time()
        reaped = []
        # A reaper killed between its two renames strands a token in
        # requeue/; nothing else scans that directory, so recover any
        # entry older than a lease straight back to pending/.  The
        # token may predate the dead reaper's attempt bump — losing one
        # bump grants a benign extra retry, never a lost job.
        # A failed token whose job nevertheless has a result (a stalled
        # original owner finished after a re-claimant burned the last
        # attempt, then died before _finalize) is retired here so every
        # job settles into exactly one terminal state.
        for job_id in self._job_ids("failed"):
            if self.result_path(job_id).exists():
                try:
                    os.replace(
                        self._state_path("failed", job_id),
                        self._state_path("done", job_id),
                    )
                except OSError:
                    continue
                self._cleanup_job_scratch(job_id)
                reaped.append(job_id)
        for job_id in self._job_ids("requeue"):
            hold_path = self._state_path("requeue", job_id)
            try:
                stat = hold_path.stat()
            except OSError:
                continue  # its owner finished moving it after all
            if now - max(stat.st_mtime, stat.st_ctime) < self.lease_seconds:
                continue
            try:
                os.rename(hold_path, self._state_path("pending", job_id))
            except OSError:
                continue
            reaped.append(job_id)
        for job_id in self._job_ids("claimed"):
            claimed_path = self._state_path("claimed", job_id)
            lease = self._read_lease(job_id)
            if lease is not None and float(lease.get("expires_at", 0.0)) > now:
                continue
            if lease is None:
                # Claimed but no lease yet: either the claimant died in
                # the claim/lease gap, or it is about to write one.
                # Only reap once the token is older than a full lease.
                # st_ctime reflects the claim rename itself (st_mtime
                # still carries the submit/requeue write time, which
                # may be arbitrarily old for a long-pending job).
                try:
                    stat = claimed_path.stat()
                except OSError:
                    continue
                if now - max(stat.st_mtime, stat.st_ctime) < self.lease_seconds:
                    continue
            hold_path = self._state_path("requeue", job_id)
            try:
                os.rename(claimed_path, hold_path)
            except OSError:
                continue  # another reaper won
            if self.result_path(job_id).exists():
                # The owner died after writing its manifest: just retire.
                os.replace(hold_path, self._state_path("done", job_id))
                self._finalize(job_id)
                reaped.append(job_id)
                continue
            try:
                token = load_json(hold_path)
            except (OSError, json.JSONDecodeError):
                token = {"job_id": job_id, "attempt": 1}
            attempt = int(token.get("attempt", 1))
            self._retry_or_fail(job_id, token, now, error=token.get("error") or (
                f"lease expired after attempt {attempt}/{self.max_attempts}"))
            reaped.append(job_id)
        return reaped

    def _retry_or_fail(self, job_id: str, token: Dict, now: float,
                       error: Optional[str] = None) -> None:
        """Move a held ``requeue/`` token on and drop the job's lease.

        With attempts left it goes back to ``pending/`` at the next
        attempt, stamped with its backoff; once they are spent it goes
        to ``failed/``, with ``error`` (when given) as its error.
        """
        hold_path = self._state_path("requeue", job_id)
        attempt = int(token.get("attempt", 1))
        if attempt >= self.max_attempts:
            if error is not None:
                token["error"] = error
            destination = "failed"
        else:
            token["attempt"] = attempt + 1
            token["not_before"] = now + self.backoff_seconds * (2 ** (attempt - 1))
            destination = "pending"
        save_json_atomic(hold_path, token)
        os.replace(hold_path, self._state_path(destination, job_id))
        self._remove_lease(job_id)

    def _handle_failure(self, job_id: str, attempt: int, error: str, worker_id: str) -> None:
        """A worker hit an exception: requeue with backoff or fail.

        Only the current lease holder may move the token — if our lease
        lapsed and the job was reaped and re-claimed, the claimed token
        now belongs to a healthy successor and must not be yanked.
        """
        lease = self._read_lease(job_id)
        if lease is None or lease.get("worker") != worker_id:
            return  # reaped; the token (and the job) moved on without us
        claimed_path = self._state_path("claimed", job_id)
        hold_path = self._state_path("requeue", job_id)
        try:
            os.rename(claimed_path, hold_path)
        except OSError:
            return
        self._retry_or_fail(job_id, {"job_id": job_id, "attempt": attempt, "error": error},
                            time.time())

    def _finalize(self, job_id: str) -> None:
        """Retire a completed job's token and scratch state.

        A result manifest always wins over a ``failed/`` token: if a
        re-claimant burned the last attempt while a stalled original
        owner was still (successfully) finishing, the failed token is
        retired too, so every job ends in exactly one terminal state.
        """
        try:
            os.replace(
                self._state_path("claimed", job_id), self._state_path("done", job_id)
            )
        except OSError:
            pass  # token already moved (reaped or finalized elsewhere)
        try:
            os.replace(
                self._state_path("failed", job_id), self._state_path("done", job_id)
            )
        except OSError:
            pass
        self._cleanup_job_scratch(job_id)

    def _cleanup_job_scratch(self, job_id: str) -> None:
        """Drop a finished job's lease and resumable checkpoints."""
        self._remove_lease(job_id)
        for suffix in (".npz", ".json"):
            try:
                os.remove((self.spool / "checkpoints" / job_id).with_suffix(suffix))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Inspection / collection
    # ------------------------------------------------------------------
    def status(self) -> QueueStatus:
        return QueueStatus(
            jobs=len(self._job_ids("jobs")),
            pending=len(self._job_ids("pending")),
            claimed=len(self._job_ids("claimed")),
            requeue=len(self._job_ids("requeue")),
            results=len(self._job_ids("results")),
            done=len(self._job_ids("done")),
            failed=len(self._job_ids("failed")),
        )

    def job_states(self) -> Dict[str, Dict]:
        """Per-job state/attempt/lease map, for ``repro sweep-status``."""
        states: Dict[str, Dict] = {}
        for job_id in self._job_ids("jobs"):
            token_state = self._token_state(job_id)
            state = token_state or "unknown"
            if self.result_path(job_id).exists():
                # A result manifest is authoritative: the job is done
                # even if a racing final-attempt failure left a token
                # (which _finalize retires on its next pass).
                state = "done"
            entry: Dict = {"state": state}
            if token_state in ("pending", "claimed", "requeue", "done", "failed"):
                try:
                    token = load_json(self._state_path(token_state, job_id))
                    entry["attempt"] = int(token.get("attempt", 1))
                    if token.get("error"):
                        entry["error"] = token["error"]
                except (OSError, json.JSONDecodeError):
                    pass
            lease = self._read_lease(job_id)
            if lease is not None and state == "claimed":
                entry["worker"] = lease.get("worker")
                entry["lease_remaining"] = float(lease.get("expires_at", 0.0)) - time.time()
            states[job_id] = entry
        return states

    def failures(self) -> Dict[str, str]:
        """Errors of jobs that exhausted their attempts."""
        errors = {}
        for job_id in self._job_ids("failed"):
            try:
                token = load_json(self._state_path("failed", job_id))
            except (OSError, json.JSONDecodeError):
                token = {}
            errors[job_id] = str(token.get("error", "unknown error"))
        return errors

    def results(self, job_ids: Optional[Sequence[str]] = None) -> Dict[str, Dict]:
        """Load result manifests (all of them, or a requested subset)."""
        job_ids = list(job_ids) if job_ids is not None else self._job_ids("results")
        manifests = {}
        for job_id in job_ids:
            path = self.result_path(job_id)
            if path.exists():
                manifests[job_id] = load_json(path)
        return manifests

    def wait(
        self,
        job_ids: Sequence[str],
        timeout: Optional[float] = None,
        poll_seconds: float = 0.1,
        on_poll: Optional[callable] = None,
    ) -> Dict[str, Dict]:
        """Block until every job has a result (or failed), reaping as we go.

        Raises ``RuntimeError`` listing per-job errors if any job lands
        in ``failed/``, and ``TimeoutError`` if ``timeout`` elapses.
        ``on_poll`` (if given) runs once per polling round — the
        scheduler uses it to respawn/replace dead worker processes.
        """
        deadline = None if timeout is None else time.time() + timeout
        remaining = set(job_ids)
        while True:
            self.reap_expired()
            if on_poll is not None:
                on_poll()
            remaining = {
                job_id for job_id in remaining if not self.result_path(job_id).exists()
            }
            failures = {j: e for j, e in self.failures().items() if j in remaining}
            if failures:
                detail = "; ".join(f"{j}: {e}" for j, e in sorted(failures.items()))
                raise RuntimeError(f"{len(failures)} sweep job(s) failed — {detail}")
            if not remaining:
                return self.results(job_ids)
            if deadline is not None and time.time() > deadline:
                raise TimeoutError(
                    f"timed out waiting for {len(remaining)} job(s): "
                    + ", ".join(sorted(remaining))
                )
            time.sleep(poll_seconds)


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
class _LeaseHeartbeat(TrainerCallback):
    """Renews a claimed job's lease while its trainer makes progress.

    Renewal is checked per optimizer step (and epoch end) but only
    written once a third of the lease has elapsed, so long epochs —
    the case where an epoch outlasts ``lease_seconds`` — never let the
    lease lapse under a healthy worker, while short jobs do not spam
    the spool with lease writes.
    """

    def __init__(self, job: ClaimedJob) -> None:
        self.job = job
        self.interval = job.queue.lease_seconds / 3.0
        self._last_renewal = time.time()

    def _renew_if_due(self) -> None:
        if time.time() - self._last_renewal >= self.interval:
            self.job.heartbeat()
            self._last_renewal = time.time()

    def on_step_end(self, trainer, iteration: int) -> None:
        self._renew_if_due()

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        self._renew_if_due()


class _CrashAfterEpochs(TrainerCallback):
    """Test-only fault injector: die as if SIGKILLed after N epoch ends.

    ``os._exit`` skips every Python-level cleanup (atexit, finally,
    flushing), which is exactly what a kill -9 mid-job looks like to
    the rest of the queue.  Fires *after* the checkpoint callback for
    the same epoch, mirroring a worker that died between epochs.
    """

    def __init__(self, epochs: int) -> None:
        self.remaining = int(epochs)

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            os._exit(113)


class QueueWorker:
    """Claims jobs from a spool and runs them to a result manifest.

    Each job runs through :func:`~repro.experiments.runner.run_experiment`
    with epoch-granular checkpointing into the spool, so any later
    claimant resumes instead of recomputing, and with a lease heartbeat
    so healthy long jobs are never reaped.  Results are bit-identical
    to a plain in-process ``run_experiment`` of the same config.
    """

    def __init__(
        self,
        queue: JobQueue,
        worker_id: Optional[str] = None,
        checkpoint_every: int = 1,
        poll_seconds: float = 0.2,
        fault_epochs: Optional[int] = None,
        verbose: bool = False,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.checkpoint_every = int(checkpoint_every)
        self.poll_seconds = float(poll_seconds)
        self.fault_epochs = fault_epochs
        self.verbose = verbose
        #: Jobs this worker finished with a result manifest.
        self.jobs_completed = 0
        #: Jobs this worker claimed but that raised (requeued/failed).
        self.jobs_failed = 0

    def run_one(self) -> Optional[str]:
        """Claim and run a single job; returns its id (None if idle).

        Success and failure are tallied on :attr:`jobs_completed` /
        :attr:`jobs_failed`; a failed job is reported to the queue
        (retry with backoff, or ``failed/`` after max attempts) and
        never kills the worker.  Unless ``REPRO_CALIBRATION_DIR`` already
        names a directory, it points at ``spool/calibration`` for the
        job's duration.
        """
        job = self.queue.claim(self.worker_id)
        if job is None:
            return None
        callbacks: List[TrainerCallback] = [_LeaseHeartbeat(job)]
        if self.fault_epochs is not None:
            callbacks.append(_CrashAfterEpochs(self.fault_epochs))
        inherited = os.environ.get(CALIBRATION_ENV)
        if not inherited:
            os.environ[CALIBRATION_ENV] = str(self.queue.spool / "calibration")
        try:
            outcome = run_experiment(
                job.config,
                verbose=self.verbose,
                checkpoint_path=job.checkpoint_path,
                checkpoint_every=self.checkpoint_every,
                resume=True,
                extra_callbacks=callbacks,
            )
        except Exception as exc:  # noqa: BLE001 — job errors must not kill the worker
            job.fail(f"{type(exc).__name__}: {exc}")
            self.jobs_failed += 1
            return job.job_id
        finally:
            if not inherited:
                os.environ.pop(CALIBRATION_ENV, None)
        job.complete(outcome_to_manifest(outcome))
        self.jobs_completed += 1
        return job.job_id

    def run(self, max_jobs: Optional[int] = None, idle_timeout: Optional[float] = None) -> int:
        """Work the queue until it drains; returns jobs *completed*.

        ``max_jobs`` bounds how many claims this worker processes
        (successes and failures both count — each is one unit of work);
        the return value counts only successful completions, with
        failures tallied on :attr:`jobs_failed`.

        The worker keeps polling while *any* job is pending, claimed or
        mid-requeue (tokens inside their backoff window count), so it
        can pick up work reaped from a crashed peer.  A spool with no
        job specs at all counts as *idle*, not drained — workers may be
        started before the sweep submits — so ``idle_timeout`` is what
        bounds the wait on a spool that never fills.
        """
        completed_before = self.jobs_completed
        processed = 0
        idle_since: Optional[float] = None
        while True:
            if max_jobs is not None and processed >= max_jobs:
                break
            job_id = self.run_one()
            if job_id is not None:
                processed += 1
                idle_since = None
                continue
            status = self.queue.status()
            # Drained = every submitted job reached a terminal state.
            # (Checking in_flight == 0 instead would race submit()'s
            # spec-then-token write pair and exit a pre-started worker
            # just as the sweep begins enqueueing.)
            if status.jobs > 0 and status.results + status.failed >= status.jobs:
                break
            now = time.time()
            if idle_timeout is not None:
                idle_since = idle_since if idle_since is not None else now
                if now - idle_since >= idle_timeout:
                    break
            time.sleep(self.poll_seconds)
        return self.jobs_completed - completed_before


def _worker_main(
    spool: str,
    lease_seconds: float,
    max_attempts: int,
    backoff_seconds: float,
    checkpoint_every: int,
    fault_epochs: Optional[int] = None,
    verbose: bool = False,
) -> None:
    """Module-level worker entry point (picklable under spawn)."""
    queue = JobQueue(
        spool,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        backoff_seconds=backoff_seconds,
    )
    QueueWorker(
        queue,
        checkpoint_every=checkpoint_every,
        fault_epochs=fault_epochs,
        verbose=verbose,
    ).run()


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def run_sweep(
    configs: Iterable[ExperimentConfig],
    jobs: int = 1,
    verbose: bool = False,
    spool: Optional[Union[str, Path]] = None,
    **queue_options,
) -> List[ExperimentOutcome]:
    """Run a config grid; outcomes come back in input order.

    With no ``spool`` and ``jobs <= 1`` the configs run in-process, one
    :func:`~repro.experiments.runner.run_experiment` after another.
    Otherwise they go through the job queue in ``spool`` (a temporary
    directory, removed afterwards, if omitted): ``jobs`` worker
    processes drain it, and ``repro worker --spool`` processes on other
    hosts can join.  If every worker process dies, the remainder is
    drained in-process, so the outcome list is always complete.
    ``queue_options`` (``lease_seconds``, ``max_attempts``,
    ``backoff_seconds``, ``checkpoint_every``) tune the queue.

    Each experiment derives every random stream from its own config
    seed, and queued jobs share the spool's calibration, so results are
    bit-identical to the in-process run at any worker count.
    """
    configs = list(configs)
    if spool is None and jobs <= 1:
        return [run_experiment(config, verbose=verbose) for config in configs]
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not configs:  # a worker on a spool with no jobs would idle forever
        return []
    checkpoint_every = int(queue_options.pop("checkpoint_every", 1))
    ephemeral = spool is None
    spool = Path(tempfile.mkdtemp(prefix="repro-sweep-") if ephemeral else spool)
    try:
        queue = JobQueue(spool, **queue_options)
        job_ids = queue.submit(configs)
        # fork shares the already-imported interpreter state (cheapest);
        # spawn is the portable fallback where fork is unavailable.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(
                target=_worker_main,
                args=(
                    str(spool),
                    queue.lease_seconds,
                    queue.max_attempts,
                    queue.backoff_seconds,
                    checkpoint_every,
                    None,
                    verbose,
                ),
                daemon=True,
            )
            for _ in range(min(jobs, max(1, len(configs))))
        ]
        for worker in workers:
            worker.start()

        def drain_if_workers_died() -> None:
            if not any(worker.is_alive() for worker in workers):
                if queue.status().in_flight > 0:
                    QueueWorker(
                        queue, checkpoint_every=checkpoint_every, verbose=verbose
                    ).run()

        try:
            manifests = queue.wait(job_ids, on_poll=drain_if_workers_died)
        finally:
            for worker in workers:
                worker.join(timeout=5.0)
                if worker.is_alive():
                    worker.terminate()
        return [manifest_to_outcome(manifests[job_id]) for job_id in job_ids]
    finally:
        if ephemeral:
            shutil.rmtree(spool, ignore_errors=True)
