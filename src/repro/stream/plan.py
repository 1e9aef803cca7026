"""Flat execution plans for frozen streaming and serving sessions.

A frozen :class:`~repro.stream.session.StreamSession` runs the same
computation for every event: a straight chain of ``Linear`` layers and
LIF/IF neurons.  :func:`compile_plan` records one ``forward_once`` call,
checks that it has that shape, and returns a :class:`StreamPlan` that
replays it as plain numpy on arrays — no ``Tensor`` objects, no
module-tree walks, no state swapped in and out of the shared model.

A plan fixes the chain of leaves and nothing else.  Each linear op does
at every call what ``masked_linear`` does: it takes the layer's route and
products from :meth:`~repro.sparse.engine.MaskedParameter.products`
(which counts the route on the layer's manager) and reads the bias then,
so a manager thawed, edited, re-frozen or re-routed after compiling is
run exactly as the module path would run it, and a plan cannot go stale.
Values are aliased, never copied; frozen CSR buffers may be views into
an mmap'd package.

Neuron state is one flat tuple ``(v, o_prev, v, o_prev, ...)`` of
arrays, a pair per neuron in plan order, one row per stream.  A step
returns a new tuple and never writes the old one, so a session that
drops a half-processed tick keeps its committed state.  Every op
repeats the module path's op order on the same operand layouts (linear
ops run the products ``masked_linear`` runs), so a plan step is
bit-identical to ``model.forward_once``.

One step can advance many streams at once: a session gathers their rows
from its slot store, and the step runs on ``(streams, width)`` arrays.
Every row is bit-equal to stepping that stream alone.  Neuron updates are
elementwise, and SciPy's multi-column CSR kernel sums each column in the
single-column kernel's order.  A dense gemm over several rows is not
bit-equal to per-row gemv calls, so :meth:`StreamPlan.step` runs dense
rows one at a time.

A frozen :class:`~repro.serve.registry.InferenceSession` runs the same
plans over whole padded batches (:meth:`StreamPlan.repeat_window`).
Its reference is ``model(Tensor(batch))``, one gemm over the batch, so
there the dense route multiplies the whole batch at once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nn.layers import Linear
from ..snn.functional import _stateful_modules
from ..snn.neuron import IFNeuron, LIFNeuron
from ..sparse.engine import MaskedParameter
from ..tensor import Tensor, no_grad

#: Leaf module types a plan can run; anything else keeps the module path.
SUPPORTED_LEAVES = (Linear, LIFNeuron, IFNeuron)


class _Linear:
    """One ``Linear`` as ``masked_linear`` runs it, read at each call.

    The route, its products and the bias all come from the layer when
    the op runs.  ``batched`` multiplies a dense stack in one gemm, as
    ``masked_linear`` does on the same batch; otherwise each row runs as
    a lone event would.  ``spikes`` marks an op fed by a neuron: its CSR
    product may read only the weight columns of inputs that fired.
    """

    __slots__ = ("layer", "spikes")

    def __init__(self, layer: Linear, spikes: bool) -> None:
        self.layer = layer
        self.spikes = spikes

    def __call__(self, x: np.ndarray, batched: bool) -> np.ndarray:
        layer = self.layer
        route, forward, _ = MaskedParameter.products(
            layer.weight_state, layer.weight.data, self.spikes)
        if route == "csr" or batched or len(x) == 1:
            out = forward(x)
        else:
            # A gemm over the stack sums in another order than the lone
            # event's call, so each row runs alone, on a fresh (1, k) copy.
            out = np.concatenate([forward(x[row:row + 1].copy()) for row in range(len(x))])
        if layer.bias is not None:
            out = out + layer.bias.data
        return out


class StreamPlan:
    """A compiled straight-line ``forward_once``: linear ops and neurons.

    ``ops`` pairs each step with a flag marking neurons; neurons run
    through their ``forward_arrays`` method against the per-stream state.
    ``in_features`` is the width of the frames the plan takes.

    The plan owns spike accounting: every step adds each neuron's spikes
    to pending counts, and :meth:`publish_counts` adds those to the
    neurons' ``spike_count``/``neuron_steps`` at once, so a stream
    session publishes once per committed tick and a tick that fails
    counts nothing.
    """

    def __init__(self, ops: List[Tuple[object, bool]], in_features: int) -> None:
        self._ops = ops
        self.in_features = int(in_features)
        self._neurons = [op for op, is_neuron in ops if is_neuron]
        self._fresh = (None, None) * len(self._neurons)
        self.drop_counts()
        # Ops before the first neuron carry no state: their output
        # depends on the frame alone.
        prefix = next((index for index, (_, is_neuron) in enumerate(ops) if is_neuron), len(ops))
        self._prefix_ops, self._stateful_ops = ops[:prefix], ops[prefix:]

    def step(self, state: Optional[Tuple], frame: np.ndarray):
        """One timestep: ``(logits, next_state)``; ``state=None`` is a reset.

        Each row of ``frame`` steps as a lone event would.  Its spikes
        are pending until :meth:`publish_counts`.
        """
        return self._run(self._ops, self._fresh if state is None else state, frame, False)

    def publish_counts(self) -> None:
        """Add the spikes of every step since the last publish or drop to
        the neurons' counters (one add per neuron)."""
        for neuron, spikes, steps in zip(self._neurons, self._spikes, self._steps):
            if steps:
                neuron.add_spike_counts(spikes, steps)
        self.drop_counts()

    def drop_counts(self) -> None:
        """Forget the spikes counted since the last publish."""
        self._spikes = [0.0] * len(self._neurons)
        self._steps = [0] * len(self._neurons)

    def repeat_window(self, frame: np.ndarray, timesteps: int) -> np.ndarray:
        """``forward_window`` over ``timesteps`` copies of ``frame``, from a reset.

        The direct-encoded window of ``model(Tensor(frame))``: the ops
        before the first neuron see the same input every timestep, so
        they run once, and the rest steps ``timesteps`` times.  Dense
        layers multiply the whole stack in one gemm, as the module path
        does on the batch.  The logits accumulate in ``forward_window``'s
        order (``acc + logits``, then one scale by ``1 / timesteps``).
        """
        self.drop_counts()
        x = frame
        for op, _ in self._prefix_ops:
            x = op(x, True)
        state = self._fresh
        accumulated = None
        for _ in range(timesteps):
            logits, state = self._run(self._stateful_ops, state, x, True)
            accumulated = logits if accumulated is None else accumulated + logits
        self.publish_counts()
        return accumulated * np.float32(1.0 / timesteps)

    def _run(self, ops, state: Tuple, x: np.ndarray, batched: bool):
        following = []
        for op, is_neuron in ops:
            if is_neuron:
                held = len(following)
                v, x = op.forward_arrays(state[held], state[held + 1], x)
                following += (v, x)
                if op.track_spikes:
                    self._spikes[held // 2] += float(x.sum())
                    self._steps[held // 2] += x.size
            else:
                x = op(x, batched)
        return x, tuple(following)


def _record_leaf_calls(model, leaves, width: int):
    """Run one ``forward_once`` on a zero frame; ``(input, calls, output)``.

    Each leaf's ``forward`` is wrapped on the instance for the duration
    of the call, so ``calls`` lists ``(module, args, kwargs, output)`` in
    execution order.  Neuron state and spike counters are put back
    afterwards, and so are the dispatch counts of every leaf's manager,
    so the probe leaves no trace on the model.
    """
    calls = []

    def recorder(module):
        forward = module.forward

        def recorded(*args, **kwargs):
            output = forward(*args, **kwargs)
            calls.append((module, args, kwargs, output))
            return output
        return recorded

    neurons = [module for _, module in leaves if type(module) is not Linear]
    saved = [(module.snapshot_state(), module.spike_count, module.neuron_steps)
             for module in neurons]
    states = [getattr(module, "weight_state", None) for _, module in leaves]
    counts = [(state.manager, dict(state.manager.dispatch_counts)) for state in states
              if state is not None and state.manager is not None]
    for _, module in leaves:
        object.__setattr__(module, "forward", recorder(module))
    probe = Tensor(np.zeros((1, width), dtype=np.float32))
    try:
        with no_grad():
            output = model.forward_once(probe)
    finally:
        for _, module in leaves:
            object.__delattr__(module, "forward")
        for module, (snapshot, spikes, steps) in zip(neurons, saved):
            module.restore_state(snapshot)
            module.spike_count, module.neuron_steps = spikes, steps
        for manager, counted in counts:
            manager.dispatch_counts.update(counted)
    return probe, calls, output


def compile_plan(model, manager=None) -> Tuple[Optional[StreamPlan], str]:
    """``(plan, "")`` for a frozen straight chain, else ``(None, reason)``.

    Eligibility is decided here, once: what the plan later reads per
    call (routes, patterns, values) may change, the chain may not.
    ``reason`` names why the model keeps the module path: a thawed
    manager, the first unsupported leaf (in registration order), a
    stateful container (its state can route later steps differently
    from the recorded one), or a recorded call sequence that is not one
    straight chain ending in the ``forward_once`` output.
    """
    if manager is not None and not manager.frozen:
        return None, "manager is thawed"
    leaves = [(path, module) for path, module in model.named_modules()
              if path and not module._modules]
    for path, module in leaves:
        if type(module) not in SUPPORTED_LEAVES:
            return None, f"unsupported leaf {path} ({type(module).__name__})"
    for path, module in _stateful_modules(model):
        if type(module) not in SUPPORTED_LEAVES:
            return None, f"unsupported stateful module {path} ({type(module).__name__})"
    for path, module in leaves:
        # A layer bound to a thawed manager is still adapting, and an
        # adaptive session reads the live module state after each step.
        state = getattr(module, "weight_state", None)
        if state is not None and not state.frozen:
            return None, f"{path} is bound to a thawed manager"
    if not leaves or type(leaves[0][1]) is not Linear:
        return None, "the first leaf is not a Linear"
    paths = {id(module): path for path, module in leaves}
    probe, calls, output = _record_leaf_calls(model, leaves, leaves[0][1].in_features)

    called = [id(module) for module, _, _, _ in calls]
    if len(set(called)) != len(called):
        # A neuron run twice would need one state slot per call.
        return None, "a leaf runs more than once per step"
    ops: List[Tuple[object, bool]] = []
    previous = probe
    for module, args, kwargs, result in calls:
        if kwargs or len(args) != 1 or args[0] is not previous:
            return None, f"leaf calls do not form a straight chain at {paths[id(module)]}"
        is_neuron = type(module) is not Linear
        fed_by_neuron = bool(ops) and ops[-1][1]
        ops.append((module if is_neuron else _Linear(module, fed_by_neuron), is_neuron))
        previous = result
    if previous is not output:
        return None, "forward_once does not return the last leaf's output"
    return StreamPlan(ops, probe.shape[1]), ""
