"""One supervised worker pool under both servers of this package.

A :class:`SupervisedPool` drains a list of
:class:`~repro.serve.batcher.MicroBatcher` shards, ``workers_per_shard``
threads on each.  Batch serving (:class:`~repro.serve.server.InferenceServer`)
is 1 shard × N workers sharing one queue; streaming
(:class:`~repro.serve.stream_worker.StreamServer`) is N shards × 1
worker, keyed by stream, so per-stream event order holds.

A worker that raises dies.  Its in-flight requests go back to the
*front* of their shard, so a crash costs a retry, not an answer; only
requests that have used up ``max_attempts`` dispatches fail (a poison
request must not wedge the pool).  A supervisor thread replaces dead
workers until ``max_restarts`` restarts are spent, then aborts: every
shard closes and all queued work fails.  A handler that *returns* an
exception for a payload instead fails that request alone, and the
worker lives on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from .batcher import InferenceRequest, MicroBatcher


class SupervisedPool:
    """Worker threads over micro-batch shards, restarted on crash.

    Each worker calls ``make_handler(shard_index)`` once, in its own
    thread, as it starts (so per-thread state such as a session is
    built there).  The handler maps a list of payloads to one output
    per payload, which resolves the matching request future; an output
    that is an ``Exception`` fails it.
    """

    #: Names the threads and the errors that queued work fails with.
    name = "worker pool"

    def __init__(
        self,
        shards: List[MicroBatcher],
        workers_per_shard: int,
        make_handler: Callable[[int], Callable[[list], list]],
        max_attempts: int = 3,
        max_restarts: int = 8,
        supervise_interval_s: float = 0.01,
    ) -> None:
        if not shards or workers_per_shard < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.shards = list(shards)
        self.workers_per_shard = int(workers_per_shard)
        self._make_handler = make_handler
        self.max_attempts = int(max_attempts)
        self.max_restarts = int(max_restarts)
        self.supervise_interval_s = float(supervise_interval_s)
        self._threads: List[threading.Thread] = []
        self._supervisor: Optional[threading.Thread] = None
        self._running = False
        # Guards the counters and the running flag; the supervisor
        # checks and spends the restart budget under it.
        self._lock = threading.Lock()
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._restarts = 0
        self._largest_batch = 0
        self._emitted = 0

    def start(self):
        if self._running:
            return self
        if any(shard.closed for shard in self.shards):
            # Workers on a closed shard exit at once, and the supervisor
            # would burn the restart budget replacing them.
            raise RuntimeError(f"{self.name} was stopped and cannot start again")
        self._running = True
        slots = len(self.shards) * self.workers_per_shard
        self._threads = [self._spawn(slot) for slot in range(slots)]
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{self.name} supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down; ``drain=True`` answers queued work first."""
        if not self._running:
            return
        with self._lock:
            self._running = False
        stopped = RuntimeError(f"{self.name} stopped")
        if drain:
            for shard in self.shards:
                shard.close()
        else:
            self._shutdown(stopped)
        self._supervisor.join(timeout=timeout)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._shutdown(stopped)  # work requeued by a crash while draining

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats(self) -> Dict[str, int]:
        """Counters; ``emitted`` counts the outputs that carry a result."""
        with self._lock:
            return {
                "submitted": sum(shard.submitted for shard in self.shards),
                "completed": self._completed,
                "failed": self._failed,
                "batches": self._batches,
                "restarts": self._restarts,
                "largest_batch": self._largest_batch,
                "emitted": self._emitted,
                "workers_alive": sum(thread.is_alive() for thread in self._threads),
            }

    def _spawn(self, slot: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._work,
            args=(slot // self.workers_per_shard,),
            name=f"{self.name} worker {slot}",
            daemon=True,
        )
        thread.start()
        return thread

    def _work(self, shard_index: int) -> None:
        shard = self.shards[shard_index]
        # A handler-factory failure kills the worker before any batch is
        # taken; the supervisor replaces it and queued requests wait.
        handle = self._make_handler(shard_index)
        while True:
            batch = shard.next_batch()
            if batch is None:
                return
            try:
                outputs = handle([request.payload for request in batch])
            except BaseException as error:
                # Split before requeueing: a requeued request's attempts
                # count moves as soon as another worker takes it.
                retry = [r for r in batch if r.attempts < self.max_attempts]
                exhausted = [r for r in batch if r.attempts >= self.max_attempts]
                shard.requeue(retry)
                self._fail(exhausted, error)
                raise
            failed = sum(isinstance(output, Exception) for output in outputs)
            # A failed output still emitted the ``result`` it carries (a
            # stream window committed before its hook raised).
            emitted = sum((getattr(output, "result", None) if isinstance(output, Exception)
                           else output) is not None for output in outputs)
            # Counted before any future resolves, so a caller that saw
            # its result also sees it in stats().
            with self._lock:
                self._completed += len(batch) - failed
                self._failed += failed
                self._batches += 1
                self._largest_batch = max(self._largest_batch, len(batch))
                self._emitted += emitted
            for request, output in zip(batch, outputs):
                if isinstance(output, Exception):
                    request.future.set_exception(output)
                else:
                    request.future.set_result(output)

    def _fail(self, requests: List[InferenceRequest], error: BaseException) -> None:
        for request in requests:
            if not request.future.done():
                request.future.set_exception(error)
        with self._lock:
            self._failed += len(requests)

    def _supervise(self) -> None:
        while self._running:
            for slot, thread in enumerate(self._threads):
                if thread.is_alive():
                    continue
                # stop() clears the flag under the lock before it closes
                # the shards, so a worker that exits on a closed shard is
                # never counted as a crash.
                with self._lock:
                    if not self._running:
                        return
                    spent = self._restarts >= self.max_restarts
                    if not spent:
                        self._restarts += 1
                if spent:
                    self._shutdown(RuntimeError(
                        f"{self.name} gave up after {self.max_restarts} worker restarts"
                    ))
                    return
                self._threads[slot] = self._spawn(slot)
            time.sleep(self.supervise_interval_s)

    def _shutdown(self, error: BaseException) -> None:
        """Close every shard and fail whatever is still queued."""
        leftovers: List[InferenceRequest] = []
        for shard in self.shards:
            shard.close()
            leftovers.extend(shard.drain_pending())
        self._fail(leftovers, error)
