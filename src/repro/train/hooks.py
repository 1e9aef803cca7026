"""Trainer callback pipeline.

The :class:`~repro.train.trainer.Trainer` is a plain loop; everything
method-, accounting- or experiment-specific attaches through
:class:`TrainerCallback` hooks:

* ``on_train_begin(trainer, epochs)`` / ``on_train_end(trainer, result)``
* ``on_epoch_start(trainer, epoch)`` / ``on_epoch_end(trainer, epoch, stats)``
* ``after_backward(trainer, iteration)`` — gradients are available,
  the optimizer has not stepped yet
* ``on_step_end(trainer, iteration)`` — after the optimizer step
* ``on_mask_update(trainer, iteration, record)`` — a sparse method
  changed its topology this iteration

The sparse-training method itself rides the same pipeline through
:class:`MethodCallback`, which adapts the
:class:`~repro.sparse.engine.SparseTrainingMethod` interface and
announces topology changes to every other callback.  Cost accounting
and fault injection ship as callbacks in :mod:`repro.train.cost` and
:mod:`repro.train.faults`.
"""

from __future__ import annotations

from typing import List, Optional

from ..sparse.engine import SparseTrainingMethod, UpdateRecord


class TrainerCallback:
    """Base class: every hook is optional."""

    def on_train_begin(self, trainer, epochs: int) -> None:
        """Called once before the first epoch."""

    def on_epoch_start(self, trainer, epoch: int) -> None:
        """Called at the start of every epoch."""

    def after_backward(self, trainer, iteration: int) -> None:
        """Called when gradients are ready, before the optimizer step."""

    def on_step_end(self, trainer, iteration: int) -> None:
        """Called after the optimizer step."""

    def on_mask_update(self, trainer, iteration: int, record: Optional[UpdateRecord]) -> None:
        """Called when the sparse method edited its topology."""

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        """Called after an epoch's statistics are final."""

    def on_train_end(self, trainer, result) -> None:
        """Called once after the last epoch."""


class CallbackList:
    """Fan-out helper; iterates callbacks in registration order."""

    def __init__(self, callbacks: Optional[List[TrainerCallback]] = None) -> None:
        self.callbacks: List[TrainerCallback] = list(callbacks or [])

    def append(self, callback: TrainerCallback) -> None:
        self.callbacks.append(callback)

    def __iter__(self):
        return iter(self.callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def fire(self, hook: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(*args)


class MethodCallback(TrainerCallback):
    """Adapts a sparse-training method to the callback pipeline.

    Runs the method's iteration hooks and watches its
    ``mask_update_count`` so topology changes are re-broadcast as
    ``on_mask_update`` to every callback (including later-registered
    ones such as cost accounting).
    """

    def __init__(self, method: SparseTrainingMethod) -> None:
        self.method = method
        self._seen_updates = 0

    def on_train_begin(self, trainer, epochs: int) -> None:
        self._seen_updates = self.method.mask_update_count

    def on_epoch_start(self, trainer, epoch: int) -> None:
        self.method.on_epoch_begin(epoch)

    def after_backward(self, trainer, iteration: int) -> None:
        self.method.after_backward(iteration)
        if self.method.mask_update_count != self._seen_updates:
            self._seen_updates = self.method.mask_update_count
            trainer.callbacks.fire(
                "on_mask_update", trainer, iteration, self.method.last_update
            )

    def on_step_end(self, trainer, iteration: int) -> None:
        self.method.after_step(iteration)

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        self.method.on_epoch_end(epoch)


class ConsoleLogger(TrainerCallback):
    """Per-epoch progress line (the historical ``verbose=True`` output)."""

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        print(
            f"epoch {epoch:3d}  loss {stats.train_loss:.4f}  "
            f"train {stats.train_accuracy:.3f}  test {stats.test_accuracy:.3f}  "
            f"sparsity {stats.sparsity:.3f}  spikes {stats.spike_rate:.3f}"
        )

