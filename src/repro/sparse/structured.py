"""Structured (filter-level) pruning — hardware-friendly extension.

Unstructured sparsity (the paper's setting) needs index storage and
gather hardware; structured pruning removes whole convolution filters /
output neurons so the dense kernels shrink directly.  This module adds
a filter-magnitude structured pruner with the same cubic-ramp schedule,
giving the repository a deployment-oriented ablation axis:
unstructured NDSNN vs structured ramps at equal sparsity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.layers import BatchNorm1d, BatchNorm2d, Conv2d, Linear
from .engine import DropGrowMethod, SparsityManager, UpdateRecord


def filter_norms(weight: np.ndarray) -> np.ndarray:
    """L2 norm of each filter (row) of a 2-D/4-D weight tensor."""
    if weight.ndim == 2:
        return np.linalg.norm(weight, axis=1)
    if weight.ndim == 4:
        return np.linalg.norm(weight.reshape(weight.shape[0], -1), axis=1)
    raise ValueError(f"unsupported weight rank {weight.ndim}")


class StructuredFilterPruning(DropGrowMethod):
    """Gradually deactivate the lowest-norm filters along an Eq. 4 ramp.

    Sparsity is measured in *weights*, but pruning granularity is whole
    filters (output channels for conv, output neurons for linear).  The
    final layer (classifier) keeps all of its output units: removing a
    class row would change the task.

    The engine supplies the update clock and the ramp from dense to
    ``final_sparsity``; this class only replaces the round itself.

    Parameters
    ----------
    final_sparsity:
        Target fraction of weights removed (approximate — quantized to
        whole filters).
    """

    name = "structured"
    ramped = True
    initial_sparsity = 0.0

    def __init__(
        self,
        final_sparsity: float = 0.5,
        total_iterations: int = 1000,
        update_frequency: int = 100,
        ramp_power: float = 3.0,
        protect_last_layer: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 < final_sparsity < 1.0:
            raise ValueError(f"final_sparsity must be in (0, 1), got {final_sparsity}")
        super().__init__(
            total_iterations=total_iterations,
            update_frequency=update_frequency,
            rng=rng,
        )
        self.final_sparsity = float(final_sparsity)
        self.ramp_power = float(ramp_power)
        self.protect_last_layer = protect_last_layer

    def layer_sparsities(self, sparsity: float) -> Dict[str, float]:
        # Every layer ramps to the global target itself.
        return dict.fromkeys(self.masks.states, sparsity)

    def initial_densities(self) -> None:
        return None  # start dense

    @property
    def pruned_filters(self) -> Dict[str, List[int]]:
        """Dead filters (all-zero mask rows) per layer."""
        return {
            name: dead_output_rows(mask).tolist()
            for name, mask in self.masks.masks.items()
        }

    def _prunable_layers(self) -> List[str]:
        names = list(self.masks.masks)
        if self.protect_last_layer and names:
            names = names[:-1]
        return names

    def update_topology(self, iteration: int) -> UpdateRecord:
        """Deactivate the lowest-norm live filters up to the ramp target."""
        self.begin_round(iteration)
        record = UpdateRecord(iteration=iteration, death_rate=0.0)
        for name in self._prunable_layers():
            state = self.masks.states[name]
            num_filters = state.shape[0]
            # Always keep at least one filter alive.
            target_pruned = min(int(self.round_targets[name] * num_filters), num_filters - 1)
            dead = dead_output_rows(state.mask)
            extra = target_pruned - dead.size
            if extra <= 0:
                continue
            norms = filter_norms(state.parameter.data)
            norms[dead] = np.inf  # never re-rank dead filters
            victims = np.argsort(norms)[:extra]
            record.dropped[name] = int(state.mask[victims].sum())
            state.mask[victims] = 0.0
            state.touch()
        return self._close_round(record)

    def filter_sparsity(self) -> Dict[str, float]:
        """Fraction of filters removed per layer."""
        return {
            name: len(dead) / self.masks.states[name].shape[0]
            for name, dead in self.pruned_filters.items()
        }

    def __repr__(self) -> str:
        return f"StructuredFilterPruning(final_sparsity={self.final_sparsity})"


# ----------------------------------------------------------------------
# Deploy-time compaction: physically remove dead filters/neurons
# ----------------------------------------------------------------------
#
# Training-time structured pruning only zeroes mask rows, so the dense
# kernels still pay full FLOPs for pruned filters.  The functions below
# turn that masked sparsity into genuinely smaller layers at bind time:
#
# 1. ``sever_dead_channels`` canonicalises the model so a dead output
#    channel contributes *exactly nothing* downstream: its bias and any
#    following batch-norm affine/running entries are zeroed (a BN over a
#    zeroed channel would otherwise inject the constant
#    ``gamma*(0-mean)/sqrt(var+eps)+beta``), and the consumer layer's
#    weight and mask columns fed by the channel are zeroed.
# 2. ``compact_model`` slices the severed model: dead rows leave the
#    producer, the matching columns leave the consumer, batch-norms
#    shrink with their layer, and a fresh ``SparsityManager`` is bound
#    over the compacted shapes.
#
# Compact output equals the *severed* model's output exactly (and the
# raw masked model's whenever no batch-norm or bias constant rides on a
# dead channel); the invariant suite pins this to 1e-6.


def dead_output_rows(mask: np.ndarray) -> np.ndarray:
    """Indices of all-zero rows (dead filters / neurons) of a mask."""
    rows = mask.shape[0]
    return np.flatnonzero(mask.reshape(rows, -1).sum(axis=1) == 0)


def _structured_chain(model, manager: SparsityManager) -> List[list]:
    """Masked modules in forward order, each with its batch-norms.

    Returns ``[state, module, [bn, ...]]`` entries and validates that
    the module walk matches the manager's state order — compaction only
    supports straight chains (Sequential-style models) where every
    masked layer feeds the next.
    """
    by_parameter = {id(state.parameter): state for state in manager.states.values()}
    entries: List[list] = []
    for module in model.modules():
        weight = module._parameters.get("weight")
        if weight is not None and id(weight) in by_parameter:
            if not isinstance(module, (Linear, Conv2d)):
                raise ValueError(
                    f"cannot compact: unsupported masked module {type(module).__name__}"
                )
            entries.append([by_parameter[id(weight)], module, []])
        elif isinstance(module, (BatchNorm1d, BatchNorm2d)):
            if not entries:
                raise ValueError("cannot compact: batch-norm precedes the first masked layer")
            producer = entries[-1][1]
            if module.num_features != producer.weight.shape[0]:
                raise ValueError(
                    "cannot compact: batch-norm width "
                    f"{module.num_features} does not match the preceding "
                    f"layer's {producer.weight.shape[0]} outputs"
                )
            entries[-1][2].append(module)
    if [entry[0] for entry in entries] != list(manager.states.values()):
        raise ValueError(
            "cannot compact: module traversal order does not match the "
            "manager's state order (non-chain models are unsupported)"
        )
    return entries


def _consumer_columns(
    producer_is_conv: bool,
    producer_out: int,
    channels: np.ndarray,
    consumer,
) -> np.ndarray:
    """Map producer output channels to consumer weight column indices.

    For conv consumers the column axis *is* the channel axis; for a
    linear consumer after a conv the flatten convention is channel-major
    (``c * spatial + s``), so each channel expands to a contiguous block
    of columns.
    """
    if isinstance(consumer, Conv2d):
        if not producer_is_conv or consumer.in_channels != producer_out:
            raise ValueError(
                "cannot compact: consumer Conv2d input channels "
                f"({consumer.in_channels}) do not match the producer's "
                f"{producer_out} outputs"
            )
        return channels
    if producer_is_conv:
        if consumer.in_features % producer_out:
            raise ValueError(
                "cannot compact: Linear in_features "
                f"({consumer.in_features}) is not a multiple of the "
                f"producing conv's {producer_out} channels"
            )
        spatial = consumer.in_features // producer_out
        return (channels[:, None] * spatial + np.arange(spatial)).reshape(-1)
    if consumer.in_features != producer_out:
        raise ValueError(
            "cannot compact: consumer Linear in_features "
            f"({consumer.in_features}) do not match the producer's "
            f"{producer_out} outputs"
        )
    return channels


def sever_dead_channels(model, manager: SparsityManager) -> Dict[str, np.ndarray]:
    """Zero every side-channel through which a dead filter still leaks.

    Iterates to a fixpoint: zeroing a consumer's columns can kill
    consumer rows whose only live weights read dead channels, and those
    newly-dead rows must be severed too before :func:`compact_model`
    may slice them out.  Returns the dead row indices per layer.
    """
    chain = _structured_chain(model, manager)
    severed: Dict[str, np.ndarray] = {
        entry[0].name: np.empty(0, dtype=np.int64) for entry in chain
    }
    changed = True
    while changed:
        changed = False
        for position, (state, module, bns) in enumerate(chain):
            dead = dead_output_rows(state.mask)
            fresh = np.setdiff1d(dead, severed[state.name], assume_unique=True)
            if fresh.size == 0:
                continue
            changed = True
            severed[state.name] = dead
            if module.bias is not None:
                module.bias.data[fresh] = 0.0
            for bn in bns:
                bn.weight.data[fresh] = 0.0
                bn.bias.data[fresh] = 0.0
                bn.running_mean[fresh] = 0.0
                bn.running_var[fresh] = 1.0
            if position + 1 < len(chain):
                next_state, next_module, _ = chain[position + 1]
                columns = _consumer_columns(
                    isinstance(module, Conv2d), module.weight.shape[0],
                    fresh, next_module,
                )
                next_module.weight.data[:, columns] = 0.0
                next_state.mask[:, columns] = 0.0
                next_state.touch()
    manager.apply_masks()
    return severed


def compact_model(model, manager: SparsityManager) -> SparsityManager:
    """Slice dead filters/neurons out of a structurally pruned model.

    Severs first (:func:`sever_dead_channels`), then physically removes
    every dead output row from its layer, the matching input columns
    from the next layer, and the matching entries from interposed
    batch-norms.  The final layer keeps all of its outputs (they are
    the task's classes).  Returns a fresh :class:`SparsityManager`
    bound over the compacted shapes, carrying over the sliced masks,
    execution mode, dispatch threshold, and calibration table — so
    ``auto`` execution keeps CSR for layers that stay unstructured-
    sparse while the compacted dense kernels shrink for real.
    """
    sever_dead_channels(model, manager)
    chain = _structured_chain(model, manager)
    new_masks: Dict[str, np.ndarray] = {}
    previous: Optional[Tuple[bool, int, np.ndarray]] = None
    for position, (state, module, bns) in enumerate(chain):
        mask = state.mask
        if position + 1 < len(chain):
            keep_out = np.flatnonzero(
                mask.reshape(mask.shape[0], -1).sum(axis=1) > 0
            )
            if keep_out.size == 0:
                raise ValueError(f"layer {state.name!r} has no live filters left")
        else:
            keep_out = None
        keep_in = None
        if previous is not None:
            producer_is_conv, producer_out, producer_keep = previous
            keep_in = _consumer_columns(
                producer_is_conv, producer_out, producer_keep, module
            )
        sliced = mask
        if keep_out is not None:
            sliced = sliced[keep_out]
        if keep_in is not None:
            sliced = sliced[:, keep_in]
        new_masks[state.name] = np.ascontiguousarray(sliced)
        if keep_out is not None:
            previous = (isinstance(module, Conv2d), module.weight.shape[0], keep_out)
            for bn in bns:
                bn.compact(keep_out)
        module.compact(keep_out=keep_out, keep_in=keep_in)
    compacted = SparsityManager(model, rng=manager.rng)
    for name, state in compacted.states.items():
        state.set_mask(new_masks[name])
        state.density_target = manager.states[name].density_target
    compacted.apply_masks()
    compacted.execution = manager.execution
    compacted.calibration = manager.calibration
    compacted.bind_layers()
    return compacted
