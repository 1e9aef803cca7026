"""Inference serving: registry, micro-batching, one supervised worker pool.

The training side of the repository produces checkpoints; this package
turns them into a service.  Three pieces compose:

* :class:`~repro.serve.registry.ModelRegistry` — named model factories;
  each worker gets its *own* :class:`~repro.serve.registry.InferenceSession`
  (spiking forwards are stateful through the neuron membranes, so
  sessions are never shared across threads).  Sessions run the engine
  inference-frozen (read-only CSR buffers, no dense grads) and pad
  every forward to one canonical batch shape so results are
  bit-identical no matter how requests were grouped.  A straight
  ``Linear``/LIF/IF chain runs as a flat plan (``session.execution``).
* :class:`~repro.serve.batcher.MicroBatcher` — request queue with a
  max-batch / max-latency flush policy, optionally keyed so a batch
  holds at most one request per key.
* :class:`~repro.serve.pool.SupervisedPool` — the one worker pool: a
  supervisor restarts crashed workers and their in-flight requests are
  re-dispatched, not dropped.  :class:`~repro.serve.server.InferenceServer`
  runs it as 1 shard × N workers,
  :class:`~repro.serve.stream_worker.StreamServer` as N stream-keyed
  shards × 1 worker.
"""

from .batcher import InferenceRequest, MicroBatcher
from .registry import InferenceSession, ModelRegistry
from .server import InferenceServer
from .stream_worker import StreamServer

__all__ = [
    "InferenceRequest",
    "MicroBatcher",
    "InferenceSession",
    "ModelRegistry",
    "InferenceServer",
    "StreamServer",
]
