"""Request micro-batching with a max-latency / max-batch flush policy."""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, List, Optional


class InferenceRequest:
    """One queued inference request: payload, result future, retry count
    and, in a keyed queue, its key."""

    __slots__ = ("payload", "future", "enqueued_at", "attempts", "key")

    def __init__(self, payload, key: Hashable = None) -> None:
        self.payload = payload
        self.key = key
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()
        self.attempts = 0


class MicroBatcher:
    """Thread-safe request queue that releases micro-batches to workers.

    Flush policy: :meth:`next_batch` hands out up to ``max_batch``
    requests as soon as either the queue holds a full batch or the
    oldest queued request has waited ``max_latency_s`` — the standard
    throughput/latency trade of batched serving.  Crashed workers hand
    their in-flight requests back through :meth:`requeue`, which puts
    them at the *front* of the queue so retried work is never starved
    by new arrivals.

    Keyed batches: given ``key`` (a function of the payload), a batch
    holds the oldest pending request of each key, at most one per key,
    found in the first ``KEYED_SCAN * max_batch`` queued requests.  The
    queue counts its requests per key, so a take stops as soon as it
    holds every queued key (or ``max_batch`` of them).  Requests it skips
    keep their queue order, so with one worker per queue each key's
    requests are handled in submission order, and a requeued batch
    restores that order.  ``key=None`` batches in plain queue order.
    """

    #: A keyed take scans at most this many requests per batch slot,
    #: bounding how long a take holds the queue's lock when one key is
    #: backed up.  On perfbench ``stream_telemetry`` (one CPU, 8 streams
    #: per queue) a scan of 2 cut 20% of ticks short (6.4 events a tick
    #: on average); 8 fills every tick, and its replays drained ~25%
    #: faster once a tick's state is gathered and stepped at once.
    KEYED_SCAN = 8

    def __init__(
        self,
        max_batch: int = 8,
        max_latency_s: float = 0.005,
        key: Optional[Callable[[object], Hashable]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        self.max_batch = int(max_batch)
        self.max_latency_s = float(max_latency_s)
        self.key = key
        self._pending: "deque[InferenceRequest]" = deque()
        self._queued: Dict[Hashable, int] = {}  # keyed: queued requests per key
        self._condition = threading.Condition()
        self._closed = False
        self.submitted = 0

    @property
    def pending(self) -> int:
        with self._condition:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, payload) -> Future:
        """Enqueue one payload; returns the future carrying its result."""
        request = InferenceRequest(payload, None if self.key is None else self.key(payload))
        with self._condition:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._pending.append(request)
            self._count(request, 1)
            self.submitted += 1
            self._condition.notify_all()
        return request.future

    def requeue(self, requests: List[InferenceRequest]) -> None:
        """Put in-flight requests back at the front (crash recovery)."""
        with self._condition:
            for request in reversed(requests):
                self._pending.appendleft(request)
                self._count(request, 1)
            self._condition.notify_all()

    def next_batch(self) -> Optional[List[InferenceRequest]]:
        """Block until a batch is due; ``None`` once closed and drained.

        Each returned request has had its ``attempts`` counter bumped,
        so retry accounting happens exactly once per dispatch.
        """
        with self._condition:
            while True:
                if self._pending:
                    if len(self._pending) >= self.max_batch or self._closed:
                        return self._take()
                    oldest_age = time.monotonic() - self._pending[0].enqueued_at
                    remaining = self.max_latency_s - oldest_age
                    if remaining <= 0:
                        return self._take()
                    self._condition.wait(remaining)
                elif self._closed:
                    return None
                else:
                    self._condition.wait()

    def _take(self) -> List[InferenceRequest]:
        if self.key is not None:
            return self._take_keyed()
        batch = []
        while self._pending and len(batch) < self.max_batch:
            request = self._pending.popleft()
            request.attempts += 1
            batch.append(request)
        return batch

    def _take_keyed(self) -> List[InferenceRequest]:
        pending = self._pending
        wanted = min(self.max_batch, len(self._queued))
        batch, skipped, keys = [], [], set()
        for _ in range(min(len(pending), self.KEYED_SCAN * self.max_batch)):
            request = pending.popleft()
            if request.key in keys:
                skipped.append(request)
                continue
            keys.add(request.key)
            request.attempts += 1
            batch.append(request)
            if len(batch) == wanted:
                break
        pending.extendleft(reversed(skipped))
        for request in batch:
            self._count(request, -1)
        return batch

    def _count(self, request: InferenceRequest, change: int) -> None:
        """Track the queued requests of ``request``'s key (keyed queues)."""
        if self.key is None:
            return
        left = self._queued.get(request.key, 0) + change
        if left:
            self._queued[request.key] = left
        else:
            del self._queued[request.key]

    def drain_pending(self) -> List[InferenceRequest]:
        """Remove and return every queued request (server shutdown)."""
        with self._condition:
            remaining = list(self._pending)
            self._pending.clear()
            self._queued.clear()
            self._condition.notify_all()
        return remaining

    def close(self) -> None:
        """Stop accepting submissions; queued work can still be taken."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
