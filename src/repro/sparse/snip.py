"""SNIP — single-shot pruning at initialization (extension baseline).

Lee et al. (ICLR 2019): score each weight by the connection
sensitivity ``|g * w|`` computed on one (or a few) mini-batches at
initialization, keep the global top-k, and train under that fixed mask.
A from-scratch static-sparsity point of comparison for NDSNN's dynamic
topology: same train-time sparsity, no topology adaptation.

A thin strategy over the sparsity engine: score accumulation lives
here, the global top-k threshold and mask plumbing come from
:class:`~repro.sparse.engine.SparsityManager`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .engine import SparseTrainingMethod, SparsityManager


class SNIPSNN(SparseTrainingMethod):
    """Sensitivity-based one-shot pruning at init, then static training.

    The trainer's first ``calibration_batches`` backward passes are used
    to accumulate sensitivity scores; the mask freezes afterwards.
    """

    name = "snip"

    def __init__(
        self,
        sparsity: float = 0.9,
        calibration_batches: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not 0.0 < sparsity < 1.0:
            raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
        if calibration_batches < 1:
            raise ValueError("calibration_batches must be >= 1")
        self.target_sparsity = float(sparsity)
        self.calibration_batches = int(calibration_batches)
        self._rng = rng
        self._scores = None
        self._calibrated = False
        self._seen = 0

    def setup(self) -> None:
        self.masks = SparsityManager(self.model, rng=self._rng)
        self._scores = {
            name: np.zeros(parameter.shape, dtype=np.float64)
            for name, parameter in self.masks.parameters.items()
        }
        self._calibrated = False
        self._seen = 0

    def after_backward(self, iteration: int) -> None:
        if not self._calibrated:
            for name, parameter in self.masks.parameters.items():
                if parameter.grad is None:
                    continue
                self._scores[name] += np.abs(parameter.grad * parameter.data)
            self._seen += 1
            if self._seen >= self.calibration_batches:
                self._prune_by_sensitivity()
                self._calibrated = True
        self.masks.apply_to_gradients()

    def _prune_by_sensitivity(self) -> None:
        """Keep the global top-(1 - sparsity) fraction by |g*w|."""
        threshold = self.masks.global_magnitude_threshold(
            self.target_sparsity, scores=self._scores
        )
        for name, state in self.masks.states.items():
            mask = (self._scores[name] >= threshold).astype(np.float32)
            if mask.sum() == 0:
                # Guarantee at least one connection per layer.
                best = np.unravel_index(self._scores[name].argmax(), mask.shape)
                mask[best] = 1.0
            state.set_mask(mask)
        self.masks.apply_masks()

    def sparsity(self) -> float:
        if not self._calibrated:
            return 0.0
        return self.masks.sparsity()

    def state_arrays(self):
        # Scores only matter until the one-shot prune; afterwards the
        # mask (checkpointed by the engine) is the whole story.
        if self._calibrated:
            return {}
        return {f"score.{name}": score for name, score in self._scores.items()}

    def load_state_arrays(self, arrays) -> None:
        for key, value in arrays.items():
            if key.startswith("score."):
                self._scores[key[len("score."):]] = np.array(value, copy=True)

    def state_meta(self):
        meta = super().state_meta()
        meta["calibrated"] = self._calibrated
        meta["seen"] = self._seen
        return meta

    def load_state_meta(self, meta) -> None:
        super().load_state_meta(meta)
        self._calibrated = bool(meta.get("calibrated", self._calibrated))
        self._seen = int(meta.get("seen", self._seen))

    def __repr__(self) -> str:
        return f"SNIPSNN(sparsity={self.target_sparsity})"
