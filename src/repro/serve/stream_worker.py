"""Streaming server: a supervised pool of N shards × 1 worker.

A :class:`StreamServer` serves an event feed instead of request
batches.  A stream's events must hit its session in arrival order, and
per-stream neuron state must survive worker crashes, so:

* **Sharding**: streams are routed to ``workers`` shards by a stable
  hash of ``stream_id``; each shard is one strict-FIFO
  :class:`~repro.serve.batcher.MicroBatcher` (``max_batch=1``) drained
  by one worker thread, so per-stream order is preserved while
  distinct streams still run in parallel.
* **Server-owned sessions**: each shard's
  :class:`~repro.stream.session.StreamSession` belongs to the server,
  not the worker thread.  ``StreamSession.process`` is transactional,
  so when a worker dies mid-event the committed per-stream state is
  intact; the pool restarts the thread, the event retries from the
  queue front, and no membrane state or readout is lost.
"""

from __future__ import annotations

import zlib
from concurrent.futures import Future
from typing import Callable, Dict, Iterable, List, Optional

from ..stream.events import StreamEvent
from ..stream.session import StreamResult, StreamSession
from .batcher import MicroBatcher
from .pool import SupervisedPool


class StreamServer(SupervisedPool):
    """Sharded, supervised streaming inference over per-stream state.

    Parameters
    ----------
    session_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.stream.session.StreamSession`; called once per
        shard (sessions are stateful and single-threaded).
    workers:
        Shard/worker count.
    max_attempts:
        Dispatch attempts per event before its future fails.
    max_restarts:
        Worker restarts before the server gives up.
    """

    name = "stream server"

    def __init__(
        self,
        session_factory: Callable[[], StreamSession],
        workers: int = 2,
        max_attempts: int = 3,
        max_restarts: int = 8,
        supervise_interval_s: float = 0.01,
    ) -> None:
        self._session_factory = session_factory
        self.workers = int(workers)
        # max_batch=1 + requeue-to-front == strict per-shard FIFO even
        # across crashes; max_latency_s=0 dispatches immediately.
        shards = [MicroBatcher(max_batch=1, max_latency_s=0.0) for _ in range(self.workers)]
        super().__init__(shards, 1, self._handler,
                         max_attempts, max_restarts, supervise_interval_s)
        self._sessions: List[StreamSession] = []

    def start(self) -> "StreamServer":
        # Sessions outlive worker threads on purpose (see module
        # docstring); build them up front so a factory error fails fast
        # instead of inside a worker.
        if not self._sessions:
            self._sessions = [self._session_factory() for _ in self.shards]
        return super().start()

    def _handler(self, shard_index: int):
        session = self._sessions[shard_index]
        return lambda events: [session.process(event) for event in events]

    def shard_of(self, stream_id: str) -> int:
        """Stable shard index for a stream (process-independent)."""
        return zlib.crc32(stream_id.encode("utf-8")) % self.workers

    def submit(self, event: StreamEvent) -> Future:
        """Enqueue one event; the future resolves to the session's
        :class:`StreamResult` (or ``None`` when no window closed)."""
        return self.shards[self.shard_of(event.stream_id)].submit(event)

    def process_stream(
        self, events: Iterable[StreamEvent], timeout: Optional[float] = None
    ) -> List[StreamResult]:
        """Feed a whole event iterable; blocking, returns the readouts."""
        futures = [self.submit(event) for event in events]
        results = [future.result(timeout=timeout) for future in futures]
        return [result for result in results if result is not None]

    def flush(self) -> List[StreamResult]:
        """Emit partial windows from every shard (idle feed only)."""
        return [result for session in self._sessions for result in session.flush()]

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        del stats["batches"], stats["largest_batch"]
        stats["windows"] = stats.pop("emitted")
        stats["execution"] = [session.execution for session in self._sessions]
        stats["streams"] = {
            sid: per_stream
            for session in self._sessions
            for sid, per_stream in session.stats().items()
        }
        return stats
