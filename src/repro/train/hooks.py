"""Trainer callbacks: observers of a training run.

The :class:`~repro.train.trainer.Trainer` calls its sparse-training
method itself; callbacks only watch.  A :class:`TrainerCallback`
overrides any of three hooks, each fired after the method's own hook
at the same point:

* ``on_epoch_start(trainer, epoch)`` — after ``method.on_epoch_begin``
* ``on_step_end(trainer, iteration)`` — after the optimizer step and
  ``method.after_step``
* ``on_epoch_end(trainer, epoch, stats)`` — after the epoch's
  statistics are final and ``method.on_epoch_end`` ran

Checkpointing (:class:`~repro.train.checkpoint.CheckpointCallback`),
the sweep queue's lease heartbeat and :class:`ConsoleLogger` are
callbacks.
"""

from __future__ import annotations


class TrainerCallback:
    """Base class: every hook is optional."""

    def on_epoch_start(self, trainer, epoch: int) -> None:
        """Called at the start of every epoch."""

    def on_step_end(self, trainer, iteration: int) -> None:
        """Called after the optimizer step."""

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        """Called after an epoch's statistics are final."""


class ConsoleLogger(TrainerCallback):
    """Prints one progress line per epoch."""

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        print(
            f"epoch {epoch:3d}  loss {stats.train_loss:.4f}  "
            f"train {stats.train_accuracy:.3f}  test {stats.test_accuracy:.3f}  "
            f"sparsity {stats.sparsity:.3f}  spikes {stats.spike_rate:.3f}"
        )
