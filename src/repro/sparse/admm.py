"""ADMM pruning baseline (Deng et al., TNNLS 2021 — paper Table II).

Alternating Direction Method of Multipliers pruning trains *dense*
weights under an augmented-Lagrangian penalty that pulls them towards a
sparse auxiliary variable ``Z``:

    min_W  L(W) + (rho/2) ||W - Z + U||^2
    Z <- Pi_S(W + U)        (projection onto the sparsity constraint)
    U <- U + W - Z           (dual ascent)

After the ADMM phase, weights are hard-pruned by magnitude to the
target per-layer sparsity and the surviving weights are fine-tuned
under a static mask (the classic train-prune-retrain shape of Fig. 1's
orange curve).

A thin strategy over the sparsity engine: the dual variables live
here, the hard prune is the engine's magnitude initialisation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .engine import SparseTrainingMethod, SparsityManager
from .erk import build_distribution


class ADMMPruner(SparseTrainingMethod):
    """Train-prune-retrain with ADMM regularization.

    Parameters
    ----------
    sparsity:
        Target global sparsity after hard pruning.
    total_iterations:
        Length of the full run; the first ``admm_fraction`` of it is the
        ADMM (dense) phase, the rest is masked fine-tuning.
    rho:
        Penalty coefficient of the augmented Lagrangian.
    update_frequency:
        Iterations between ``Z``/``U`` updates.
    """

    name = "admm"

    def __init__(
        self,
        sparsity: float = 0.9,
        total_iterations: int = 1000,
        admm_fraction: float = 0.5,
        rho: float = 1e-2,
        update_frequency: int = 50,
        distribution: str = "erk",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not 0.0 < sparsity < 1.0:
            raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
        if not 0.0 < admm_fraction < 1.0:
            raise ValueError(f"admm_fraction must be in (0, 1), got {admm_fraction}")
        self.target_sparsity = float(sparsity)
        self.total_iterations = int(total_iterations)
        self.admm_fraction = float(admm_fraction)
        self.rho = float(rho)
        self.update_frequency = int(update_frequency)
        self.distribution = distribution
        self._rng = rng
        self.Z: Dict[str, np.ndarray] = {}
        self.U: Dict[str, np.ndarray] = {}
        self.densities: Dict[str, float] = {}
        self.pruned = False
        self.sparsity_trace: List[float] = []

    @property
    def admm_end(self) -> int:
        """Iteration at which hard pruning happens."""
        return int(self.total_iterations * self.admm_fraction)

    def setup(self) -> None:
        self.masks = SparsityManager(self.model, rng=self._rng)
        self.densities = build_distribution(
            self.distribution, self.masks.shapes, 1.0 - self.target_sparsity
        )
        self.Z = {}
        self.U = {}
        for name, parameter in self.masks.parameters.items():
            self.U[name] = np.zeros(parameter.shape, dtype=np.float32)
            self.Z[name] = self._project(parameter.data, self.densities[name])
        self.pruned = False
        self.sparsity_trace = []

    @staticmethod
    def _project(weights: np.ndarray, density: float) -> np.ndarray:
        """Euclidean projection onto the k-sparse set (keep top-|w|)."""
        flat = weights.reshape(-1)
        keep = max(1, int(round(density * flat.size)))
        projected = np.zeros_like(flat)
        order = np.argpartition(np.abs(flat), flat.size - keep)[flat.size - keep:]
        projected[order] = flat[order]
        return projected.reshape(weights.shape)

    def after_backward(self, iteration: int) -> None:
        if self.pruned:
            self.masks.apply_to_gradients()
            return
        if iteration >= self.admm_end:
            self._hard_prune()
            self.masks.apply_to_gradients()
            return
        # ADMM phase: dense training with the augmented-Lagrangian pull.
        for name, parameter in self.masks.parameters.items():
            if parameter.grad is None:
                continue
            parameter.grad += self.rho * (parameter.data - self.Z[name] + self.U[name])
        if iteration > 0 and iteration % self.update_frequency == 0:
            self._dual_update()

    def _dual_update(self) -> None:
        for name, parameter in self.masks.parameters.items():
            self.Z[name] = self._project(parameter.data + self.U[name], self.densities[name])
            self.U[name] += parameter.data - self.Z[name]

    def _hard_prune(self) -> None:
        """Magnitude-prune to the target distribution, freeze the mask."""
        self.masks.init_from_magnitude(self.densities)
        self.pruned = True

    def after_step(self, iteration: int) -> None:
        if self.pruned:
            self.masks.apply_masks()
        self.sparsity_trace.append(self.sparsity())

    def sparsity(self) -> float:
        if not self.pruned:
            return 0.0
        return self.masks.sparsity()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        # The duals only drive the ADMM (pre-prune) phase; after the
        # hard prune the checkpointed mask carries everything.
        if self.pruned:
            return {}
        arrays = {}
        for name, value in self.Z.items():
            arrays[f"Z.{name}"] = value
        for name, value in self.U.items():
            arrays[f"U.{name}"] = value
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for key, value in arrays.items():
            if key.startswith("Z."):
                self.Z[key[len("Z."):]] = np.array(value, copy=True)
            elif key.startswith("U."):
                self.U[key[len("U."):]] = np.array(value, copy=True)

    def state_meta(self) -> Dict:
        meta = super().state_meta()
        meta["pruned"] = self.pruned
        meta["sparsity_trace"] = [float(s) for s in self.sparsity_trace]
        return meta

    def load_state_meta(self, meta: Dict) -> None:
        super().load_state_meta(meta)
        self.pruned = bool(meta.get("pruned", self.pruned))
        self.sparsity_trace = list(meta.get("sparsity_trace", self.sparsity_trace))

    def __repr__(self) -> str:
        return (
            f"ADMMPruner(sparsity={self.target_sparsity}, rho={self.rho}, "
            f"admm_fraction={self.admm_fraction})"
        )
