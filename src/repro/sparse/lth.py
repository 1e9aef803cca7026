"""LTH-SNN baseline: Lottery Ticket Hypothesis via iterative magnitude
pruning (IMP) with weight rewinding.

Following Kim et al. (ECCV 2022, the paper's LTH-SNN reference) and
Frankle & Carlin (ICLR 2019): the model is trained to completion,
the smallest-magnitude surviving weights are pruned globally so that
round ``r`` of ``R`` reaches sparsity

    s_r = 1 - (1 - s_target)^(r / R)

the surviving weights are *rewound* to their initialization values, and
training restarts under the new mask.  The expensive part — and the
inefficiency NDSNN attacks — is that early rounds train at low sparsity
(the orange/blue curves of Fig. 1), and the procedure needs ``R`` full
training runs.

Mask state and the global magnitude threshold come from the shared
:class:`~repro.sparse.engine.SparsityManager`; this controller only
owns the round schedule and the rewind logic.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn.module import Module
from .engine import SparsityManager, StaticMaskMethod


class LTHSNN:
    """Controller for iterative-magnitude-pruning experiments.

    This is a *meta*-method: each round produces a
    :class:`StaticMaskMethod` to hand to a fresh training run.

    Parameters
    ----------
    model:
        The network; its state at construction time is the rewinding
        point.
    target_sparsity:
        Final sparsity after all rounds.
    rounds:
        Number of prune-rewind-retrain rounds ``R``.
    scope:
        ``global`` ranks weights across all layers jointly (standard
        LTH); ``layerwise`` prunes each layer at the same rate.
    """

    name = "lth"

    def __init__(
        self,
        model: Module,
        target_sparsity: float,
        rounds: int = 3,
        scope: str = "global",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 < target_sparsity < 1.0:
            raise ValueError(f"target_sparsity must be in (0, 1), got {target_sparsity}")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if scope not in ("global", "layerwise"):
            raise ValueError(f"unknown pruning scope {scope!r}")
        self.model = model
        self.target_sparsity = float(target_sparsity)
        self.rounds = int(rounds)
        self.scope = scope
        self.rng = rng if rng is not None else np.random.default_rng()
        self.initial_state = model.state_dict()
        self.manager = SparsityManager(model, rng=self.rng)
        # Dict views shared with the manager's per-layer states.
        self.parameters = self.manager.parameters
        self.masks: Dict[str, np.ndarray] = self.manager.masks

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------
    def sparsity_for_round(self, round_index: int) -> float:
        """Sparsity reached after pruning at the end of ``round_index``.

        Rounds are 1-based; round ``R`` reaches the target sparsity.
        """
        if not 1 <= round_index <= self.rounds:
            raise ValueError(f"round index {round_index} out of range [1, {self.rounds}]")
        keep = (1.0 - self.target_sparsity) ** (round_index / self.rounds)
        return 1.0 - keep

    # ------------------------------------------------------------------
    # Prune / rewind
    # ------------------------------------------------------------------
    def prune(self, round_index: int) -> Dict[str, np.ndarray]:
        """Magnitude-prune the trained weights to the round's sparsity."""
        sparsity = self.sparsity_for_round(round_index)
        if self.scope == "global":
            self._prune_global(sparsity)
        else:
            self._prune_layerwise(sparsity)
        return self.manager.copy_masks()

    def _prune_global(self, sparsity: float) -> None:
        threshold = self.manager.global_magnitude_threshold(sparsity)
        for state in self.manager.states.values():
            survives = (np.abs(state.parameter.data) >= threshold) & (state.mask > 0)
            state.set_mask(survives.astype(np.float32))

    def _prune_layerwise(self, sparsity: float) -> None:
        for state in self.manager.states.values():
            flat = np.abs(state.parameter.data.reshape(-1))
            active = state.mask.reshape(-1) > 0
            keep = max(1, int(round((1.0 - sparsity) * flat.size)))
            values = flat.copy()
            values[~active] = -np.inf
            order = np.argpartition(values, flat.size - keep)[flat.size - keep:]
            mask = np.zeros(flat.size, dtype=np.float32)
            mask[order] = 1.0
            state.set_mask(
                (mask.reshape(state.shape) * active.reshape(state.shape)).astype(np.float32)
            )

    def rewind(self) -> None:
        """Reset weights to initialization and re-apply the current mask."""
        self.model.load_state_dict(self.initial_state)
        self.manager.apply_masks()

    def method_for_round(self, round_index: int) -> StaticMaskMethod:
        """Static-mask training method for round ``round_index`` (1-based)."""
        if round_index == 1:
            masks = {
                name: np.ones(state.shape, dtype=np.float32)
                for name, state in self.manager.states.items()
            }
        else:
            masks = self.manager.copy_masks()
        return StaticMaskMethod(masks=masks, rng=self.rng)

    def current_sparsity(self) -> float:
        return self.manager.sparsity()

    def __repr__(self) -> str:
        return (
            f"LTHSNN(target={self.target_sparsity}, rounds={self.rounds}, scope={self.scope!r})"
        )
