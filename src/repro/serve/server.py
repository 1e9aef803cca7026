"""Batched inference server: a supervised pool of 1 shard × N workers.

Workers pull micro-batches from one shared :class:`MicroBatcher` and
run them through their own :class:`InferenceSession`.  Crash recovery,
retry budgets and the restart budget are the
:class:`~repro.serve.pool.SupervisedPool` contract.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Callable, Dict, Optional

import numpy as np

from .batcher import MicroBatcher
from .pool import SupervisedPool


class InferenceServer(SupervisedPool):
    """Worker pool over one model's sessions.

    Parameters
    ----------
    session_factory:
        Zero-argument callable returning a fresh session per worker
        (e.g. ``lambda: registry.session("mnist")``).  Sessions are
        per-thread because spiking forwards are stateful.
    workers:
        Worker thread count.
    max_batch / max_latency_s:
        Micro-batch flush policy (see :class:`MicroBatcher`).
    max_attempts:
        Dispatch attempts per request before its future fails.
    max_restarts:
        Total worker restarts before the server gives up and fails all
        queued work (guards against a factory that can never succeed).
    """

    name = "inference server"

    def __init__(
        self,
        session_factory: Callable[[], object],
        workers: int = 2,
        max_batch: int = 8,
        max_latency_s: float = 0.005,
        max_attempts: int = 3,
        max_restarts: int = 8,
        supervise_interval_s: float = 0.01,
    ) -> None:
        self._session_factory = session_factory
        self.workers = int(workers)
        # The one queue every worker pulls from; read through the
        # instance at each pull, so a per-instance wrapper of
        # ``next_batch`` installed before start() is what workers call.
        self.batcher = MicroBatcher(max_batch=max_batch, max_latency_s=max_latency_s)
        super().__init__([self.batcher], self.workers, self._handler,
                         max_attempts, max_restarts, supervise_interval_s)

    def _handler(self, shard_index: int):
        session = self._session_factory()  # built in the worker's own thread
        return lambda payloads: session.predict(np.stack(payloads))

    def submit(self, sample) -> Future:
        """Enqueue one sample; the future resolves to its output row."""
        return self.batcher.submit(np.asarray(sample, dtype=np.float32))

    def predict(self, sample, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(sample).result(timeout=timeout)

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        del stats["emitted"]
        return stats
