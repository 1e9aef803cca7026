"""Streaming server: a supervised pool of N shards × 1 worker.

A :class:`StreamServer` serves an event feed instead of request
batches.  A stream's events must hit its session in arrival order, and
per-stream neuron state must survive worker crashes, so:

* **Sharding**: streams are routed to ``workers`` shards by a stable
  hash of ``stream_id``; each shard is one
  :class:`~repro.serve.batcher.MicroBatcher` keyed by ``stream_id`` and
  drained by one worker thread, so distinct streams run in parallel.
* **Ticks**: one worker pass (a *tick*) takes the oldest queued event
  of each ready stream, up to :data:`TICK_WIDTH`, and hands them to
  :meth:`~repro.stream.session.StreamSession.process_many`, which
  gathers the streams' rows from the session's slot store and runs them
  as one plan step.  Per-stream order is FIFO; events of different
  streams may overtake each other.  Only a plan session gains from a
  tick.  A shard whose session runs
  the module path, or whose ``process`` was replaced (a wrapper set on
  the instance, a subclass override), takes one event per tick, strict
  FIFO, and serves it through ``session.process``, so a replaced
  ``process`` sees every event.
* **Server-owned sessions**: each shard's
  :class:`~repro.stream.session.StreamSession` belongs to the server,
  not the worker thread.  ``process_many`` is transactional, so when a
  worker dies mid-tick the committed per-stream state is intact; the
  pool restarts the thread, the whole tick retries from the queue
  front, and no membrane state or readout is lost.  A malformed event
  fails only its own future, with a
  :class:`~repro.stream.session.RejectedEvent`, and so does an event
  whose window hook raised after its tick committed, with a
  :class:`~repro.stream.session.WindowHookError`; the worker lives on.
"""

from __future__ import annotations

import zlib
from concurrent.futures import Future
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

from ..stream.events import StreamEvent
from ..stream.session import RejectedEvent, StreamResult, StreamSession, WindowHookError
from .batcher import MicroBatcher
from .pool import SupervisedPool

#: Events a shard steps at once: at most one per stream.
TICK_WIDTH = 16


def _steps_ticks(session: StreamSession) -> bool:
    """A plan session whose ``process`` is the class's own."""
    own = getattr(session.process, "__func__", None) is StreamSession.process
    return own and session.execution == "plan"


def _process_one(session: StreamSession, event: StreamEvent):
    """``session.process(event)``, a rejection or a failed window hook
    returned instead of raised."""
    try:
        return session.process(event)
    except (RejectedEvent, WindowHookError) as error:
        return error


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
        # Keyed takes + requeue-to-front == per-stream FIFO even across
        # crashes; max_latency_s=0 dispatches immediately.
        by_stream = attrgetter("stream_id")
        shards = [MicroBatcher(max_batch=TICK_WIDTH, max_latency_s=0.0, key=by_stream)
                  for _ in range(self.workers)]
        super().__init__(shards, 1, self._handler,
                         max_attempts, max_restarts, supervise_interval_s)
        self._sessions: List[StreamSession] = []

    def start(self) -> "StreamServer":
        # Sessions outlive worker threads on purpose (see module
        # docstring); build them up front so a factory error fails fast
        # instead of inside a worker.
        if not self._sessions:
            self._sessions = [self._session_factory() for _ in self.shards]
            for shard, session in zip(self.shards, self._sessions):
                if not _steps_ticks(session):
                    shard.max_batch = 1
        return super().start()

    def _handler(self, shard_index: int):
        session = self._sessions[shard_index]
        if self.shards[shard_index].max_batch > 1:
            return session.process_many
        return lambda events: [_process_one(session, event) for event in events]

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
        stats["ticks"] = stats.pop("batches")
        stats["largest_tick"] = stats.pop("largest_batch")
        stats["windows"] = stats.pop("emitted")
        stats["execution"] = [session.execution for session in self._sessions]
        stats["streams"] = {
            sid: per_stream
            for session in self._sessions
            for sid, per_stream in session.stats().items()
        }
        return stats
