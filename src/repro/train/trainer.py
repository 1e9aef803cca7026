"""Training loop for sparse spiking networks.

The :class:`Trainer` moves batches, runs backward, steps the optimizer
and calls its sparse-training method's hooks at fixed points.
Checkpointing, logging and custom instrumentation observe the run as
:class:`~repro.train.hooks.TrainerCallback` objects, each fired after
the method's hook at the same point.

Per-epoch statistics — including the spike rate and density traces that
feed the paper's Section IV-C training-cost model — are recorded by the
trainer core since every consumer needs them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn.module import Module
from ..optim import CosineAnnealingLR, Optimizer
from ..snn.functional import reset_spike_stats, spike_rate
from ..sparse.engine import SparseTrainingMethod
from ..tensor import Tensor, cross_entropy
from .hooks import TrainerCallback
from .metrics import AverageMeter, evaluate


@dataclass
class EpochStats:
    """Per-epoch record of a training run."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float
    sparsity: float
    density: float
    spike_rate: float
    learning_rate: float
    #: Fraction of masked-kernel calls this epoch that took the CSR
    #: route (0.0 under dense execution).  Defaults so histories saved
    #: by older checkpoints still reconstruct.
    csr_dispatch_share: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainingResult:
    """Outcome of :meth:`Trainer.fit`."""

    history: List[EpochStats] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.history[-1].test_accuracy if self.history else 0.0

    @property
    def best_accuracy(self) -> float:
        return max((s.test_accuracy for s in self.history), default=0.0)

    @property
    def spike_rates(self) -> List[float]:
        return [s.spike_rate for s in self.history]

    @property
    def densities(self) -> List[float]:
        return [s.density for s in self.history]

    @property
    def sparsities(self) -> List[float]:
        return [s.sparsity for s in self.history]


class Trainer:
    """Drives one training run of a (sparse) spiking model.

    Parameters
    ----------
    model, method, optimizer:
        The method is bound to the model/optimizer pair at construction
        (mask initialisation happens here); the trainer calls its
        ``on_epoch_begin``, ``after_backward``, ``after_step`` and
        ``on_epoch_end`` hooks, looked up on the instance at each call.
    train_loader / test_loader:
        Mini-batch iterables of ``(Tensor images, labels)``.
    scheduler:
        Optional LR scheduler stepped once per epoch.
    loss_fn:
        Defaults to cross-entropy on the temporal-mean logits.
    callbacks:
        :class:`TrainerCallback` observers (checkpointing, logging, ...),
        fired in registration order after the method's hook.
    """

    def __init__(
        self,
        model: Module,
        method: SparseTrainingMethod,
        optimizer: Optimizer,
        train_loader,
        test_loader=None,
        scheduler: Optional[CosineAnnealingLR] = None,
        loss_fn: Callable[[Tensor, np.ndarray], Tensor] = cross_entropy,
        grad_clip: Optional[float] = None,
        callbacks: Optional[Sequence[TrainerCallback]] = None,
    ) -> None:
        self.model = model
        self.method = method
        self.optimizer = optimizer
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.scheduler = scheduler
        self.loss_fn = loss_fn
        self.grad_clip = grad_clip
        self.iteration = 0
        #: The in-flight :class:`TrainingResult`; set at the top of
        #: :meth:`fit` so callbacks (checkpointing, logging) can see the
        #: history accumulated so far.
        self.result: Optional[TrainingResult] = None
        self.callbacks: List[TrainerCallback] = list(callbacks or ())
        method.bind(model, optimizer)

    def add_callback(self, callback: TrainerCallback) -> "Trainer":
        """Register one more callback (chainable)."""
        self.callbacks.append(callback)
        return self

    def _fire(self, hook: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(self, *args)

    # ------------------------------------------------------------------
    def _clip_gradients(self) -> None:
        if self.grad_clip is None:
            return
        for parameter in self.model.parameters():
            if parameter.grad is not None:
                np.clip(parameter.grad, -self.grad_clip, self.grad_clip, out=parameter.grad)

    def train_epoch(self) -> tuple:
        """One pass over the training data; returns (loss, accuracy)."""
        self.model.train()
        loss_meter = AverageMeter()
        accuracy_meter = AverageMeter()
        for images, labels in self.train_loader:
            logits = self.model(images)
            loss = self.loss_fn(logits, labels)
            self.optimizer.zero_grad()
            loss.backward()
            self._clip_gradients()
            self.method.after_backward(self.iteration)
            self.optimizer.step()
            self.method.after_step(self.iteration)
            self._fire("on_step_end", self.iteration)
            self.iteration += 1

            batch = len(labels)
            loss_meter.update(float(loss.data), batch)
            predictions = logits.data.argmax(axis=1)
            accuracy_meter.update(float((predictions == labels).mean()), batch)
        return loss_meter.average, accuracy_meter.average

    def fit(
        self,
        epochs: int,
        start_epoch: int = 0,
        initial_history: Optional[Sequence[EpochStats]] = None,
    ) -> TrainingResult:
        """Train for ``epochs`` epochs, recording per-epoch statistics.

        ``start_epoch``/``initial_history`` support resuming from a
        checkpoint (see :func:`~repro.train.checkpoint.load_training_state`):
        the loop picks up at ``start_epoch`` and the returned history is
        the restored epochs followed by the newly trained ones, exactly
        as an uninterrupted run would have produced.
        """
        result = TrainingResult(history=list(initial_history or []))
        self.result = result
        for epoch in range(start_epoch, epochs):
            self.method.on_epoch_begin(epoch)
            self._fire("on_epoch_start", epoch)
            reset_spike_stats(self.model)
            masks = self.method.masks
            counts = masks.dispatch_counts if masks is not None else {"dense": 0, "csr": 0}
            before = dict(counts)
            train_loss, train_accuracy = self.train_epoch()
            # The method's own manager, counted around the training pass
            # only: evaluation and other models' forwards leave the share.
            csr_calls = counts["csr"] - before["csr"]
            total_calls = csr_calls + counts["dense"] - before["dense"]
            epoch_spike_rate = spike_rate(self.model)
            if self.scheduler is not None:
                self.scheduler.step()
            test_accuracy = (
                evaluate(self.model, self.test_loader) if self.test_loader is not None else 0.0
            )
            stats = EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_accuracy,
                test_accuracy=test_accuracy,
                sparsity=self.method.sparsity(),
                density=self.method.density(),
                spike_rate=epoch_spike_rate,
                learning_rate=self.optimizer.lr,
                csr_dispatch_share=(csr_calls / total_calls) if total_calls else 0.0,
            )
            result.history.append(stats)
            self.method.on_epoch_end(epoch)
            self._fire("on_epoch_end", epoch, stats)
        return result
