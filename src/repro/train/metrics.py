"""Evaluation metrics and meters."""

from __future__ import annotations

from typing import Optional

from ..nn.module import Module
from ..tensor import no_grad


class AverageMeter:
    """Streaming weighted mean (loss/accuracy accounting)."""

    def __init__(self) -> None:
        self.total = 0.0
        self.weight = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        self.total += float(value) * weight
        self.weight += weight

    @property
    def average(self) -> float:
        if self.weight == 0:
            return 0.0
        return self.total / self.weight

    def reset(self) -> None:
        self.total = 0.0
        self.weight = 0.0


def evaluate(model: Module, loader, max_batches: Optional[int] = None) -> float:
    """Top-1 accuracy of ``model`` over ``loader`` (grad-free)."""
    was_training = model.training
    model.eval()
    correct = 0
    seen = 0
    with no_grad():
        for index, (images, labels) in enumerate(loader):
            if max_batches is not None and index >= max_batches:
                break
            logits = model(images)
            predictions = logits.data.argmax(axis=1)
            correct += int((predictions == labels).sum())
            seen += len(labels)
    if was_training:
        model.train()
    if seen == 0:
        return 0.0
    return correct / seen

