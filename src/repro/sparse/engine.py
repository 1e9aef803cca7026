"""Unified sparsity engine shared by every sparse-training method.

Two layers live here:

* :class:`MaskedParameter` — the per-layer unit of sparse state: the
  parameter itself, its binary mask, the density target, and cached CSR
  pattern/regrowth bookkeeping.  All topology edits (drop by magnitude,
  grow by score, grow random) are methods of this object, so every
  training method manipulates sparsity through exactly one code path.

* :class:`SparsityManager` — owns one :class:`MaskedParameter` per
  sparsifiable weight tensor of a model and provides network-level
  operations: distribution initialisation, mask/gradient enforcement,
  global magnitude pruning, sparsity reporting, and (optionally) layer
  binding so the forward pass can take the CSR fast path.

On top of the manager, :class:`DropGrowMethod` is the one engine of
every scheduled sparse method (NDSNN, SET, RigL, GMP, structured filter
pruning and the streaming adaptation layer).  It owns the update clock,
the Eq. 4 ramp and its per-layer targets, the default counts (drop
``rate * n_active``, regrow as many), the per-round record keeping and
the momentum reset at grown connections.  A method supplies only its
rate, its growth scores and, if it ramps, the ramp's endpoints; NDSNN
adds the Eq. 9 birth count and GMP grows nothing.

The engine preserves the exact numerical behaviour (including RNG call
order) of the pre-refactor per-method implementations; the golden-mask
regression test pins this down for every method.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..nn.module import Module, Parameter
from ..tensor import dense_products
from .dispatch import STATIC_CSR_DENSITY_CUTOFF
from .erk import build_distribution
from .schedule import LayerwiseSparsityRamp

#: Execution modes for masked layers.  ``dense`` always multiplies the
#: (already masked) dense weights; ``auto`` picks CSR when the measured
#: layer density drops below the dispatch cutoff (per-shape calibrated
#: when a :class:`~repro.sparse.dispatch.CalibrationTable` is present,
#: :data:`~repro.sparse.dispatch.STATIC_CSR_DENSITY_CUTOFF`
#: otherwise); ``csr`` forces the sparse kernels.
EXECUTION_MODES = ("dense", "auto", "csr")


def sparsifiable_parameters(model: Module, exclude: Iterable[str] = ()) -> List[Tuple[str, Parameter]]:
    """Named weight tensors that take part in sparsification.

    Selects parameters with ndim >= 2 (conv filters and linear weights);
    1-D parameters (biases, batch-norm scales) are left dense.
    """
    excluded = set(exclude)
    selected = []
    for name, parameter in model.named_parameters():
        if parameter.ndim >= 2 and name not in excluded:
            selected.append((name, parameter))
    return selected


def _kept_count(name: str, density: float, size: int) -> int:
    """Active weights of a ``size``-weight layer at ``density``, at least one."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"layer {name!r}: density {density} outside [0, 1]")
    return max(1, min(size, int(round(density * size))))


class MaskedParameter:
    """Per-layer sparse state: parameter, mask, target, CSR cache.

    The mask array is shared by reference with the owning manager's
    ``masks`` dict, so in-place edits through either handle stay
    consistent.  ``pattern_version`` increments whenever the sparsity
    pattern may have changed; the CSR fast path uses it to invalidate
    its cached column-index/row-pointer structure.

    Given a frozen ``pattern`` (a packed artifact's layer), the state
    is built straight from it: it starts frozen, holds no dense mask
    (``mask is None``), counts its non-zeros from ``pattern.nnz`` and
    serves the pattern's stored value buffer.  Such a state can never
    be thawed.
    """

    __slots__ = (
        "name",
        "parameter",
        "mask",
        "density_target",
        "pattern_version",
        "_csr_cache",
        "_count_cache",
        "_count_version",
        "_values_dirty",
        "frozen",
        "manager",
    )

    def __init__(self, name: str, parameter: Parameter, pattern=None) -> None:
        self.name = name
        self.parameter = parameter
        self.density_target: Optional[float] = None
        self.pattern_version = 0
        self.manager: Optional["SparsityManager"] = None
        self._csr_cache = pattern
        self.frozen = pattern is not None
        self._values_dirty = not self.frozen
        if self.frozen:
            self.mask: Optional[np.ndarray] = None
            self._count_cache: Optional[int] = pattern.nnz
            self._count_version = self.pattern_version
            parameter.requires_grad = False
        else:
            self.mask = np.ones(parameter.shape, dtype=np.float32)
            self._count_cache = None
            self._count_version = -1
        # Back-reference so code that mutates the raw parameter (the
        # optimizer step, checkpoint restore) can keep the CSR value
        # cache coherent without knowing about managers.
        try:
            parameter._masked_state = self
        except AttributeError:  # plain Tensor with __slots__: no cache
            pass

    # ------------------------------------------------------------------
    # Counts / reporting
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.parameter.size

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.parameter.shape

    def nonzero_count(self) -> int:
        # Cached per pattern version: the count only changes at topology
        # edits (all of which call touch), and auto-mode dispatch asks
        # for it on every forward.
        if self._count_version != self.pattern_version:
            self._count_cache = int(self.mask.sum())
            self._count_version = self.pattern_version
        return self._count_cache

    def density(self) -> float:
        return self.nonzero_count() / self.size

    def sparsity(self) -> float:
        return 1.0 - self.density()

    # ------------------------------------------------------------------
    # Mask replacement / enforcement
    # ------------------------------------------------------------------
    def set_mask(self, mask: np.ndarray) -> None:
        """Replace the mask (shape-checked); invalidates the CSR cache."""
        self._require_thawed("a topology edit")
        if mask.shape != self.parameter.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match parameter "
                f"{self.name!r} shape {self.parameter.shape}"
            )
        self.mask[...] = mask.astype(np.float32)
        self.touch()

    def _frozen_error(self, action: str) -> RuntimeError:
        return RuntimeError(
            f"parameter {self.name!r} is frozen for inference: {action} "
            "would invalidate the read-only CSR value buffer a server may "
            "be reading concurrently; call thaw() (or "
            "SparsityManager.thaw()) before mutating weights or topology"
        )

    def _require_thawed(self, action: str) -> None:
        """Refuse ``action`` on a frozen state before it reads or writes."""
        if self.frozen:
            raise self._frozen_error(action)

    def touch(self) -> None:
        """Mark the sparsity pattern as changed."""
        self._require_thawed("a topology edit")
        self.pattern_version += 1
        self._csr_cache = None
        self._values_dirty = True

    def apply_mask(self) -> None:
        """Zero out masked weight entries (idempotent)."""
        self.parameter.data *= self.mask

    def apply_grad_mask(self) -> None:
        """Zero gradients of inactive weights."""
        if self.parameter.grad is not None:
            self.parameter.grad *= self.mask

    # ------------------------------------------------------------------
    # Topology edits
    # ------------------------------------------------------------------
    def drop_by_magnitude(self, count: int) -> np.ndarray:
        """Deactivate the ``count`` active weights closest to zero.

        Returns the flat indices that were dropped.
        """
        return self.drop_by_score(count, self.parameter.data)

    def drop_by_score(self, count: int, scores: np.ndarray) -> np.ndarray:
        """Deactivate the ``count`` active positions with the lowest score.

        ``scores`` is a dense array over the full weight tensor, ranked
        by magnitude at the active positions: the streaming adaptation
        layer passes activity-weighted magnitudes, and
        :meth:`drop_by_magnitude` passes the weights themselves.
        Returns the dropped flat indices.
        """
        def lowest(active, count):
            score_flat = np.abs(scores.reshape(-1)[active])
            return active[np.argpartition(score_flat, count - 1)[:count]]

        return self._edit(False, count, lowest)

    def grow_by_score(self, count: int, scores: np.ndarray) -> np.ndarray:
        """Activate the ``count`` inactive positions with the highest score.

        ``scores`` is a dense array over the full weight tensor (e.g.
        gradient magnitude for RigL/NDSNN).  New weights start at zero,
        following the RigL convention.  Returns the grown flat indices.
        """
        def highest(inactive, count):
            score_flat = np.abs(scores.reshape(-1)[inactive])
            return inactive[np.argpartition(score_flat, score_flat.size - count)[-count:]]

        return self._edit(True, count, highest)

    def grow_random(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Activate ``count`` random inactive positions (SET growth)."""
        return self._edit(
            True, count, lambda inactive, count: rng.choice(inactive, size=count, replace=False)
        )

    def _edit(self, grow: bool, count: int, choose) -> np.ndarray:
        """The one topology edit behind every drop and grow.

        The candidates are the inactive positions when ``grow``, else
        the active ones; ``choose(candidates, count)`` picks at most
        ``count`` of them.  Their mask entries flip, their weights are
        zeroed (a grown weight starts at zero, as in RigL) and the
        chosen flat indices are returned.
        """
        self._require_thawed("a topology edit")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        mask_flat = self.mask.reshape(-1)
        candidates = np.flatnonzero(mask_flat == 0.0) if grow else np.flatnonzero(mask_flat)
        count = min(count, candidates.size)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        chosen = choose(candidates, count)
        mask_flat[chosen] = 1.0 if grow else 0.0
        self.parameter.data.reshape(-1)[chosen] = 0.0
        self.touch()
        return chosen

    # ------------------------------------------------------------------
    # CSR fast path support
    # ------------------------------------------------------------------
    def csr_pattern(self):
        """Cached CSR pattern of the current mask (lazy).

        Returns a :class:`~repro.sparse.storage.CSRPattern` keyed to the
        current ``pattern_version``.  Weight *values* live in the
        pattern's persistent buffer, maintained write-through by the
        optimizer step (:meth:`write_through`); topology edits are the
        only event that rebuilds the index structure.
        """
        if self._csr_cache is None:
            from .storage import CSRPattern

            self._csr_cache = CSRPattern.from_mask(self.mask)
            self._values_dirty = True
        return self._csr_cache

    def csr_values(self) -> np.ndarray:
        """Active weight values in CSR order, refreshed only when stale.

        On the steady-state training path the optimizer's write-through
        hook keeps the buffer current, so this is a flag check plus a
        buffer return — the per-forward re-gather the historical CSR
        path paid is gone.
        """
        pattern = self.csr_pattern()
        if self._values_dirty:
            pattern.gather(self.parameter.data)
            self._values_dirty = False
        return pattern.values

    def mark_values_dirty(self) -> None:
        """Note an out-of-band weight mutation (checkpoint restore, an
        in-place probe); the next :meth:`csr_values` re-gathers.

        Raises on a frozen state: out-of-band mutations (e.g.
        ``load_state_dict`` into a serving model) must fail loudly
        instead of silently dirtying a buffer the inference path will
        never refresh.
        """
        self._require_thawed("an out-of-band weight mutation")
        self._values_dirty = True

    # ------------------------------------------------------------------
    # Inference freezing
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Enter inference-frozen mode: values current, buffer read-only.

        Gathers the active values one final time, locks the CSR value
        buffer, and disables gradient tracking on the parameter.  Every
        subsequent mutation path — topology edits, write-through,
        ``load_state_dict`` — raises a clear error
        instead of corrupting what a serving thread is reading.
        Idempotent.
        """
        if self.frozen:
            return
        self.apply_mask()
        pattern = self.csr_pattern()
        if self._values_dirty:
            pattern.gather(self.parameter.data)
            self._values_dirty = False
        pattern.freeze()
        self.parameter.requires_grad = False
        self.frozen = True

    def thaw(self) -> None:
        """Leave inference-frozen mode; the state is trainable again."""
        if not self.frozen:
            return
        if self.mask is None:
            raise RuntimeError(
                f"parameter {self.name!r} comes from a packed artifact and is "
                "immutable; re-train from a checkpoint instead of thawing it"
            )
        if self._csr_cache is not None:
            self._csr_cache.thaw()
        self.parameter.requires_grad = True
        self.frozen = False

    def write_through(self) -> None:
        """Refresh the cached CSR values after an in-place weight update.

        Called by ``Optimizer.step`` right after it updates this
        parameter.  When the layer is currently routed through the CSR
        kernels the active values are written straight into the cached
        buffer (one gather per *step*, amortized over every timestep
        forward and input-gradient product); otherwise the refresh is
        deferred with a dirty flag so dense-mode training pays nothing.
        """
        self._require_thawed("an optimizer step")
        self._values_dirty = True
        cache = self._csr_cache
        if cache is None:
            return
        manager = self.manager
        if manager is None or manager.route(self) != "csr":
            return
        cache.gather(self.parameter.data)
        self._values_dirty = False

    def products(self, weight: np.ndarray, spikes: bool = False):
        """``(route, forward, input_grad)`` of this layer: the one dispatch.

        ``weight`` is the layer's ``(out, in)`` matrix.  The route is the
        manager's :meth:`SparsityManager.route`, counted once in its
        ``dispatch_counts``; ``forward(rows)`` is ``rows @ weight.T`` and
        ``input_grad(grad_rows)`` is ``grad_rows @ weight``, by BLAS
        (:func:`~repro.tensor.functional.dense_products`) or the layer's
        ``CSRPattern``.  No manager: dense, uncounted.

        ``spikes`` says the forward's rows are a neuron's exact 0/1
        output.  On the CSR route the forward then runs
        :meth:`~repro.sparse.storage.CSRPattern.spike_matmul`, with the
        same bits, and counts the kernel it took in the manager's
        ``spike_product_counts``.
        """
        manager = self.manager
        route = "dense" if manager is None else manager.route(self)
        if manager is not None:
            manager.dispatch_counts[route] += 1
        if route == "dense":
            return (route, *dense_products(weight))
        pattern, values = self.csr_pattern(), self.csr_values()
        if spikes:
            counts = manager.spike_product_counts

            def forward(rows):
                out, event_driven = pattern.spike_matmul(values, rows)
                counts["event" if event_driven else "matmul"] += 1
                return out.T
        else:
            def forward(rows):
                return pattern.matmul(values, rows.T).T
        return route, forward, lambda grad_rows: pattern.t_matmul(values, grad_rows.T).T

    def __repr__(self) -> str:
        return (
            f"MaskedParameter({self.name!r}, shape={self.shape}, "
            f"density={self.density():.3f})"
        )


class SparsityManager:
    """Owns the :class:`MaskedParameter` states of a sparse model.

    The ``masks`` and ``parameters`` dicts share storage with the
    per-layer states.  A trained manager is built from a model;
    :meth:`from_patterns` builds a frozen serving manager from a packed
    artifact's CSR patterns.

    Parameters
    ----------
    model:
        The network whose weight tensors are masked.
    exclude:
        Parameter names exempt from sparsification.
    rng:
        Random generator used for topology initialisation and random
        growth (SET).
    """

    def __init__(
        self,
        model: Module,
        exclude: Iterable[str] = (),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        selected = sparsifiable_parameters(model, exclude)
        if not selected:
            raise ValueError("model has no sparsifiable parameters")
        self._adopt(model, [MaskedParameter(name, parameter) for name, parameter in selected], rng)

    @classmethod
    def from_patterns(
        cls,
        model: Module,
        patterns: Dict,
        execution: str,
        calibration=None,
        package=None,
    ) -> "SparsityManager":
        """A frozen manager over frozen CSR patterns (a packed artifact).

        ``patterns`` maps weight-parameter names of ``model`` to frozen
        :class:`~repro.sparse.storage.CSRPattern` objects, each served
        by a maskless frozen :class:`MaskedParameter`; ``package`` is
        the :class:`~repro.sparse.packaging.PackedModel` they came from.
        Routes follow :meth:`route`, as for a trained manager.
        """
        parameters = dict(model.named_parameters())
        missing = [name for name in patterns if name not in parameters]
        if missing:
            raise KeyError(f"layer {missing[0]!r} not in model")
        manager = cls.__new__(cls)
        manager._adopt(model, [
            MaskedParameter(name, parameters[name], pattern)
            for name, pattern in patterns.items()
        ], rng=None)
        manager.execution = execution
        manager.calibration = calibration
        manager.package = package
        return manager

    def _adopt(self, model: Module, states: List[MaskedParameter], rng) -> None:
        self.model = model
        self.states: "OrderedDict[str, MaskedParameter]" = OrderedDict()
        for state in states:
            state.manager = self
            self.states[state.name] = state
        self.parameters: Dict[str, Parameter] = {
            name: state.parameter for name, state in self.states.items()
        }
        self.masks: Dict[str, np.ndarray] = {
            name: state.mask for name, state in self.states.items()
        }
        self.rng = rng if rng is not None else np.random.default_rng()
        self.execution = "dense"
        #: Optional per-shape measured dispatch table
        #: (:class:`~repro.sparse.dispatch.CalibrationTable`); when
        #: present it overrides the static cutoff under ``auto``.
        self.calibration = None
        #: The :class:`~repro.sparse.packaging.PackedModel` a serving
        #: manager was loaded from; ``None`` for trained managers.
        self.package = None
        #: Masked-layer calls per route (module forwards and plan ops),
        #: counted by :meth:`MaskedParameter.products`.
        self.dispatch_counts: Dict[str, int] = {"dense": 0, "csr": 0}
        #: The CSR calls among those whose rows were spikes, by the kernel
        #: that ran: ``"event"``-driven or ``"matmul"``.
        self.spike_product_counts: Dict[str, int] = {"event": 0, "matmul": 0}
        self._bound = False

    # ------------------------------------------------------------------
    # Shapes / counts
    # ------------------------------------------------------------------
    @property
    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        return {name: state.shape for name, state in self.states.items()}

    def layer_size(self, name: str) -> int:
        return self.states[name].size

    @property
    def total_weights(self) -> int:
        return sum(state.size for state in self.states.values())

    def nonzero_count(self, name: str) -> int:
        return self.states[name].nonzero_count()

    @property
    def total_nonzero(self) -> int:
        return sum(state.nonzero_count() for state in self.states.values())

    # ------------------------------------------------------------------
    # Sparsity reporting
    # ------------------------------------------------------------------
    def layer_sparsity(self, name: str) -> float:
        return self.states[name].sparsity()

    def sparsity(self) -> float:
        """Global sparsity over all sparsifiable weights."""
        return 1.0 - self.total_nonzero / self.total_weights

    def density(self) -> float:
        return 1.0 - self.sparsity()

    def sparsity_distribution(self) -> Dict[str, float]:
        return {name: state.sparsity() for name, state in self.states.items()}

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def init_random(self, densities: Dict[str, float]) -> None:
        """Random topology at the requested per-layer densities.

        The number of active weights per layer is the rounded density
        times the layer size, clamped to at least one active weight.  A
        density outside ``[0, 1]`` raises ``ValueError`` naming the layer.
        """
        self._init_masks(
            densities, lambda state, keep: self.rng.choice(state.size, size=keep, replace=False)
        )

    def init_from_magnitude(self, densities: Dict[str, float]) -> None:
        """Keep the largest-magnitude weights per layer (pruning init)."""
        def largest(state, keep):
            flat = np.abs(state.parameter.data.reshape(-1))
            threshold_index = state.size - keep
            return np.argpartition(flat, threshold_index)[threshold_index:]

        self._init_masks(densities, largest)

    def _init_masks(self, densities: Dict[str, float], choose) -> None:
        """One mask per layer: ``choose(state, keep)`` picks its active
        flat indices, ``keep`` being the layer's kept count."""
        for name, state in self.states.items():
            density = densities[name]
            mask = np.zeros(state.size, dtype=np.float32)
            mask[choose(state, _kept_count(name, density, state.size))] = 1.0
            state.set_mask(mask.reshape(state.shape))
            state.density_target = density
        self.apply_masks()

    def init_distribution(self, kind: str, density: float) -> Dict[str, float]:
        """Random topology from a named distribution (``erk``/``uniform``).

        Returns the per-layer densities that were applied.
        """
        densities = build_distribution(kind, self.shapes, density)
        self.init_random(densities)
        return densities

    def set_mask(self, name: str, mask: np.ndarray) -> None:
        """Replace one layer's mask (shape-checked)."""
        self.states[name].set_mask(mask)

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------
    def apply_masks(self) -> None:
        """Zero out every masked weight (idempotent)."""
        for state in self.states.values():
            state.apply_mask()

    def apply_to_gradients(self) -> None:
        """Zero gradients of inactive weights (only active weights train)."""
        for state in self.states.values():
            state.apply_grad_mask()

    def copy_masks(self) -> Dict[str, np.ndarray]:
        return {name: state.mask.copy() for name, state in self.states.items()}

    def load_masks(self, masks: Dict[str, np.ndarray]) -> None:
        for name, mask in masks.items():
            self.set_mask(name, mask)
        self.apply_masks()

    # ------------------------------------------------------------------
    # Network-level pruning
    # ------------------------------------------------------------------
    def global_magnitude_threshold(
        self, sparsity: float, scores: Optional[Dict[str, np.ndarray]] = None
    ) -> float:
        """Score threshold keeping the global top-(1 - sparsity) fraction.

        ``scores`` defaults to weight magnitudes over *active* entries;
        SNIP passes sensitivity scores, LTH uses the default.
        """
        chunks = []
        for name, state in self.states.items():
            if scores is not None:
                chunks.append(np.asarray(scores[name]).reshape(-1))
            else:
                flat = state.mask.reshape(-1) > 0
                chunks.append(np.abs(state.parameter.data.reshape(-1)[flat]))
        all_scores = np.concatenate(chunks)
        total = self.total_weights
        keep = max(1, int(round((1.0 - sparsity) * total)))
        keep = min(keep, all_scores.size)
        return float(
            np.partition(all_scores, all_scores.size - keep)[all_scores.size - keep]
        )

    # ------------------------------------------------------------------
    # Layer binding / execution dispatch
    # ------------------------------------------------------------------
    def bind_layers(self, execution: Optional[str] = None) -> int:
        """Attach per-layer state to the owning nn modules.

        After binding, ``Linear``/``Conv2d`` forward passes consult the
        state and (under ``auto``/``csr`` execution) run the CSR fast
        path.  Binding never calibrates: ``set_execution(...,
        calibrate=True)`` or :meth:`calibrate` builds the measured table.
        Returns the number of layers bound.
        """
        if execution is not None:
            self.set_execution(execution)
        by_parameter = {id(state.parameter): state for state in self.states.values()}
        bound = 0
        for module in self.model.modules():
            weight = module._parameters.get("weight")
            if weight is not None and id(weight) in by_parameter:
                object.__setattr__(module, "weight_state", by_parameter[id(weight)])
                bound += 1
        self._bound = True
        return bound

    def set_execution(self, execution: str, calibrate: bool = False) -> None:
        if execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {execution!r} (choose from {EXECUTION_MODES})"
            )
        self.execution = execution
        if execution != "dense" and not self._bound:
            self.bind_layers()
        if calibrate and execution == "auto":
            self.calibrate()

    def calibrate(self, measure=None):
        """Build (or extend) the measured per-shape dispatch table.

        Cutoffs come from :func:`repro.sparse.dispatch.get_cutoff`,
        which consults the shared write-once cache so every process of
        a sweep converges on identical dispatch decisions.  ``measure``
        is injectable for tests.  Returns the table.
        """
        from .dispatch import CalibrationTable, measure_crossover

        table = self.calibration if self.calibration is not None else CalibrationTable()
        table.calibrate_shapes(
            (state.shape for state in self.states.values()),
            measure=measure if measure is not None else measure_crossover,
        )
        self.calibration = table
        return table

    def route(self, state: MaskedParameter) -> str:
        """``"csr"`` or ``"dense"``: one layer's route, by measured density."""
        if self.execution == "auto":
            return "csr" if state.density() <= self._cutoff_for(state)[0] else "dense"
        return "csr" if self.execution == "csr" else "dense"

    def _cutoff_for(self, state: MaskedParameter) -> Tuple[float, str]:
        """``auto`` density cutoff for one layer and where it came from."""
        if self.calibration is not None:
            cutoff = self.calibration.cutoff_for(state.shape)
            if cutoff is not None:
                return cutoff, "calibrated"
        return STATIC_CSR_DENSITY_CUTOFF, "static"

    def explain_dispatch(self, name: str) -> Dict:
        """Inspectable dispatch decision for one layer.

        Returns shape, measured density, the effective density cutoff
        and where it came from (``calibrated`` table or ``static``
        fallback), and the route the next forward will take.
        """
        from .dispatch import matrix_shape

        state = self.states[name]
        cutoff, source = self._cutoff_for(state)
        return {
            "layer": name,
            "shape": matrix_shape(state.shape),
            "density": round(state.density(), 4),
            "cutoff": round(float(cutoff), 4),
            "cutoff_source": source,
            "execution": self.execution,
            "route": self.route(state),
        }

    # ------------------------------------------------------------------
    # Inference freezing
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """True when every layer state is inference-frozen."""
        return all(state.frozen for state in self.states.values())

    def freeze(self) -> "SparsityManager":
        """Lock the whole model for inference serving.

        Applies the masks one final time, binds the layers if needed
        (so the CSR fast path is reachable), then freezes every layer
        state: CSR values are gathered and their buffers made
        read-only, dense gradient tracking is switched off, and any
        further mutation — optimizer steps, ``load_state_dict``,
        topology edits — raises a clear error.
        Returns at once when already frozen; reversed by :meth:`thaw`.
        """
        if self.frozen:
            return self
        self.apply_masks()
        if not self._bound:
            self.bind_layers()
        for state in self.states.values():
            state.freeze()
        return self

    def thaw(self) -> "SparsityManager":
        """Reverse :meth:`freeze`; the model is trainable again."""
        for state in self.states.values():
            state.thaw()
        return self

    def refresh_values(self) -> None:
        """Eagerly rebuild CSR values for layers on the CSR route.

        Called after topology edits so the index rebuild and the value
        gather happen at the mask-update site, not on the next forward.
        """
        for state in self.states.values():
            if self.route(state) == "csr":
                state.csr_values()

    def __repr__(self) -> str:
        return (
            f"SparsityManager(layers={len(self.states)}, "
            f"sparsity={self.sparsity():.3f}, execution={self.execution!r})"
        )


@dataclass
class UpdateRecord:
    """Audit record of one drop-and-grow round (used by tests/benches)."""

    iteration: int
    death_rate: float
    dropped: Dict[str, int] = field(default_factory=dict)
    grown: Dict[str, int] = field(default_factory=dict)
    sparsity_after: float = 0.0

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def total_grown(self) -> int:
        return sum(self.grown.values())


class SparseTrainingMethod:
    """Base class for everything in the Table I method column.

    The :class:`~repro.train.trainer.Trainer` calls these hooks itself,
    before any callback at the same point, per iteration:

    1. ``after_backward(iteration)`` — gradients for *all* weights
       (active and inactive) are available; dynamic methods may update
       topology here (gradient-based growth needs the dense gradient)
       and must mask gradients so only active weights are updated.
    2. (optimizer step happens)
    3. ``after_step(iteration)`` — re-enforce masks (momentum terms can
       perturb pruned weights).

    ``on_epoch_begin``/``on_epoch_end`` frame every epoch, for methods
    with coarse phase structure (LTH's round boundaries live outside
    single runs).  The drop-and-grow family logs every topology round
    in its ``history``.
    """

    name = "base"

    def __init__(self) -> None:
        self.model: Optional[Module] = None
        self.optimizer = None
        self.masks: Optional[SparsityManager] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, model: Module, optimizer) -> None:
        """Attach the method to a model/optimizer pair before training."""
        self.model = model
        self.optimizer = optimizer
        self.setup()

    def setup(self) -> None:
        """Initialise masks; called once from :meth:`bind`."""

    def set_execution(self, execution: str, calibrate: bool = False) -> None:
        """Select dense/auto/csr execution for the masked layers.

        ``calibrate=True`` builds the measured per-shape dispatch table
        when ``execution`` is ``auto`` (the experiment runners pass it;
        direct engine users opt in explicitly).
        """
        if self.masks is not None:
            self.masks.set_execution(execution, calibrate=calibrate)

    # ------------------------------------------------------------------
    # Per-iteration hooks
    # ------------------------------------------------------------------
    def after_backward(self, iteration: int) -> None:
        """Called when gradients are available, before the optimizer step."""
        if self.masks is not None:
            self.masks.apply_to_gradients()

    def after_step(self, iteration: int) -> None:
        """Called after the optimizer step."""
        if self.masks is not None:
            self.masks.apply_masks()

    # ------------------------------------------------------------------
    # Per-epoch hooks
    # ------------------------------------------------------------------
    def on_epoch_begin(self, epoch: int) -> None:
        """Called at the start of every epoch."""

    def on_epoch_end(self, epoch: int) -> None:
        """Called at the end of every epoch."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Method-specific arrays to checkpoint (masks are saved separately).

        Methods carrying dense auxiliary tensors (ADMM duals, SNIP
        sensitivity scores) override this; the drop-and-grow family has
        no array state beyond the masks.
        """
        return {}

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Restore arrays saved by :meth:`state_arrays`."""

    def state_meta(self) -> Dict:
        """JSON-able method state: the RNG position.

        Restoring this (plus the masks and :meth:`state_arrays`) into a
        freshly bound method puts it exactly where it was at the
        checkpointed epoch boundary, so a resumed run replays the same
        topology-update and growth decisions bit for bit.
        """
        meta: Dict = {}
        if self.masks is not None:
            meta["rng_state"] = self.masks.rng.bit_generator.state
        return meta

    def load_state_meta(self, meta: Dict) -> None:
        """Restore state saved by :meth:`state_meta`.

        Keys this version no longer writes (``mask_update_count``) are
        ignored.
        """
        rng_state = meta.get("rng_state")
        if rng_state is not None and self.masks is not None:
            self.masks.rng.bit_generator.state = rng_state

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def sparsity(self) -> float:
        """Current global sparsity of the sparsifiable weights."""
        if self.masks is None:
            return 0.0
        return self.masks.sparsity()

    def density(self) -> float:
        return 1.0 - self.sparsity()

    def sparsity_distribution(self) -> Dict[str, float]:
        if self.masks is None:
            return {}
        return self.masks.sparsity_distribution()

    def _reset_momentum(self, name: str, flat_indices: np.ndarray) -> None:
        """Zero optimizer state at newly-grown weight positions."""
        if self.optimizer is None or flat_indices.size == 0 or self.masks is None:
            return
        parameter = self.masks.parameters[name]
        reset = getattr(self.optimizer, "reset_state_entries", None)
        if reset is not None:
            reset(parameter, flat_indices)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


class DenseMethod(SparseTrainingMethod):
    """No sparsification at all — the paper's dense baseline."""

    name = "dense"

    def after_backward(self, iteration: int) -> None:  # no masks to apply
        return

    def after_step(self, iteration: int) -> None:
        return

    def sparsity(self) -> float:
        return 0.0


class StaticMaskMethod(SparseTrainingMethod):
    """Train under a fixed mask (used for LTH retraining rounds).

    Parameters
    ----------
    masks:
        Optional dict of layer name to binary mask.  If omitted, a
        random topology at ``densities`` is drawn at setup.
    """

    name = "static"

    def __init__(
        self,
        masks: Optional[Dict[str, np.ndarray]] = None,
        densities: Optional[Dict[str, float]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self._initial_masks = masks
        self._densities = densities
        self._rng = rng

    def setup(self) -> None:
        self.masks = SparsityManager(self.model, rng=self._rng)
        if self._initial_masks is not None:
            self.masks.load_masks(self._initial_masks)
        elif self._densities is not None:
            self.masks.init_random(self._densities)
        self.masks.apply_masks()


class DropGrowMethod(SparseTrainingMethod):
    """Shared engine of the scheduled sparse methods.

    NDSNN, SET, RigL, GMP, structured filter pruning and the streaming
    adaptation layer all run here.  The engine owns the update clock,
    the Eq. 4 ramp (for :attr:`ramped` methods), the default counts, the
    per-round record keeping, the momentum reset at grown connections
    and mask re-application.  A method supplies what is its own:

    * :meth:`round_death_rate` — the fraction of each layer's active
      weights dropped per round;
    * :meth:`growth_scores` — a dense score array ranking the inactive
      positions (the default ``None`` grows at random);
    * for a ramped method, its ``initial_sparsity``,
      ``final_sparsity`` and ``ramp_power``.

    :meth:`drop_count` drops ``round_death_rate * n_active`` (leaving
    at least one weight) and :meth:`grow_count` regrows what was
    dropped; NDSNN and GMP override them with counts from
    :meth:`target_active`.
    """

    #: Ramp methods (NDSNN, GMP, structured) set this: setup builds
    #: :attr:`ramp` from ``initial_sparsity`` to ``final_sparsity`` and
    #: shrinks ``update_frequency`` so very short runs still fit one
    #: update round.  The constant-sparsity methods keep ``target_sparsity``.
    ramped = False

    def __init__(
        self,
        total_iterations: int = 1000,
        update_frequency: int = 100,
        stop_fraction: float = 1.0,
        distribution: str = "erk",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if update_frequency < 1:
            raise ValueError("update_frequency must be >= 1")
        if not 0.0 < stop_fraction <= 1.0:
            raise ValueError("stop_fraction must be in (0, 1]")
        self.total_iterations = int(total_iterations)
        self.update_frequency = int(update_frequency)
        self.stop_fraction = float(stop_fraction)
        self.distribution = distribution
        self._rng = rng
        self.history: List[UpdateRecord] = []
        self.ramp: Optional[LayerwiseSparsityRamp] = None
        self.round_targets: Dict[str, float] = {}

    # -- schedule geometry ---------------------------------------------
    @property
    def num_rounds(self) -> int:
        """Number of topology-update rounds in the schedule horizon."""
        horizon = int(self.total_iterations * self.stop_fraction)
        return max(1, horizon // self.update_frequency)

    @property
    def horizon(self) -> int:
        """Iteration after which the topology freezes."""
        return self.num_rounds * self.update_frequency

    def _is_update_step(self, iteration: int) -> bool:
        return (
            iteration > 0
            and iteration % self.update_frequency == 0
            and iteration <= self.horizon
            and iteration < self.total_iterations
        )

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        if self.ramped and self.update_frequency >= self.total_iterations:
            self.update_frequency = max(1, self.total_iterations - 1)
        self.masks = SparsityManager(self.model, rng=self._rng)
        if self.ramped:
            self.ramp = LayerwiseSparsityRamp(
                self.layer_sparsities(self.initial_sparsity),
                self.layer_sparsities(self.final_sparsity),
                t_start=0,
                num_rounds=self.num_rounds,
                update_frequency=self.update_frequency,
                power=self.ramp_power,
            )
        self.configure_schedules()
        densities = self.initial_densities()
        if densities is not None:
            self.masks.init_random(densities)
        self.history = []

    def configure_schedules(self) -> None:
        """Build per-method schedules; masks/shapes are available."""

    def layer_sparsities(self, sparsity: float) -> Dict[str, float]:
        """Per-layer sparsities of ``distribution`` at a global ``sparsity``."""
        densities = build_distribution(self.distribution, self.masks.shapes, 1.0 - sparsity)
        return {name: 1.0 - density for name, density in densities.items()}

    def initial_densities(self) -> Optional[Dict[str, float]]:
        """Per-layer densities for the random topology at setup.

        The ramp's start for a ramped method, else the distribution at
        ``target_sparsity``; return ``None`` to start dense.
        """
        if self.ramped:
            start = self.layer_sparsities(self.initial_sparsity)
            return {name: 1.0 - sparsity for name, sparsity in start.items()}
        return build_distribution(
            self.distribution, self.masks.shapes, 1.0 - self.target_sparsity
        )

    # -- per-round strategy hooks --------------------------------------
    def begin_round(self, iteration: int) -> None:
        """Cache the ramp's per-layer targets before any layer is edited."""
        if self.ramp is not None:
            self.round_targets = self.ramp.sparsity_at(iteration)

    def target_active(self, name: str) -> int:
        """Active weights layer ``name`` keeps at this round's ramp target."""
        layer_size = self.masks.layer_size(name)
        return max(1, int(round((1.0 - self.round_targets[name]) * layer_size)))

    def round_death_rate(self, iteration: int) -> float:
        """Fraction of each layer's active weights dropped this round."""
        return 0.0

    def drop_count(self, name: str, iteration: int) -> int:
        """Active weights layer ``name`` loses this round (never its last)."""
        n_active = self.masks.nonzero_count(name)
        return min(int(self.round_death_rate(iteration) * n_active), max(0, n_active - 1))

    def grow_count(self, name: str, iteration: int, dropped: int) -> int:
        """Connections layer ``name`` regains after dropping ``dropped``."""
        return dropped

    def growth_scores(self, name: str) -> Optional[np.ndarray]:
        """Dense score array for growth, or ``None`` for random growth."""
        return None

    def drop_scores(self, name: str) -> Optional[np.ndarray]:
        """Dense score array for dropping, or ``None`` for magnitude.

        Every published method in this repo drops by weight magnitude
        (the default); the streaming adaptation layer overrides this
        with activity-weighted scores.  Lowest score is dropped first.
        """
        return None

    # -- the one shared drop-and-grow loop ------------------------------
    def after_backward(self, iteration: int) -> None:
        if self._is_update_step(iteration):
            self.update_topology(iteration)
        self.masks.apply_to_gradients()

    def update_topology(self, iteration: int) -> UpdateRecord:
        """One drop-and-grow round across all layers."""
        self.begin_round(iteration)
        record = UpdateRecord(
            iteration=iteration, death_rate=self.round_death_rate(iteration)
        )
        for name, state in self.masks.states.items():
            drop_scores = self.drop_scores(name)
            if drop_scores is None:
                dropped = state.drop_by_magnitude(self.drop_count(name, iteration))
            else:
                dropped = state.drop_by_score(
                    self.drop_count(name, iteration), drop_scores
                )
            grow = self.grow_count(name, iteration, dropped.size)
            grown = np.empty(0, dtype=np.int64)
            if grow > 0:
                scores = self.growth_scores(name)
                if scores is None:
                    grown = state.grow_random(grow, self.masks.rng)
                else:
                    grown = state.grow_by_score(grow, scores)
                self._reset_momentum(name, grown)
            record.dropped[name] = int(dropped.size)
            record.grown[name] = int(grown.size)
        return self._close_round(record)

    def _close_round(self, record: UpdateRecord) -> UpdateRecord:
        """Re-apply the masks and log ``record`` once every layer is edited."""
        self.masks.apply_masks()
        # Write-through at the mask-update site: rebuild the CSR index
        # and values here (the only index-rebuild event) so the next
        # forward starts warm.
        self.masks.refresh_values()
        record.sparsity_after = self.masks.sparsity()
        self.history.append(record)
        return record
