"""Frozen sessions run as flat plans, bit-identical to the module path.

Two oracles pin the plan:

* every emitted and flushed window equals ``offline_reference`` — the
  offline ``forward_window`` pass on the module path;
* every window, ``stats()`` value and spike counter equals a session
  whose ``_step`` runs ``model.forward_once`` over the same weights,
  with per-stream state swapped in and out of the model.

``execution`` must say ``"plan"`` wherever a plan is expected, or a
silent fallback to the module path would pass every identity check.

A third oracle pins ticks: ``process_many`` over ticks of several
streams, gathered from the slot store and stepped at once, must match
``process`` run event by event.
"""

import numpy as np
import pytest

from repro.data.telemetry import make_telemetry_stream
from repro.nn import Linear
from repro.serve import MicroBatcher
from repro.snn import RecurrentSpikingLayer
from repro.snn.functional import reset_net, restore_net_state, snapshot_net_state
from repro.snn.models import SpikingConvNet, SpikingMLP
from repro.snn.models.base import SpikingModel
from repro.snn.neuron import BaseNeuron, LIFNeuron
from repro.sparse import SparsityManager
from repro.sparse.packaging import PackedModel, build_packed_runtime, write_package
from repro.stream import AdaptiveStreamSession, StreamSession
from repro.tensor import Tensor, no_grad

CHANNELS = 6
CLASSES = 3
PACKED = ("f32", "f16", "int8")
MANAGERS = ("none", "dense", "csr", "auto") + PACKED


class ModulePathSession(StreamSession):
    """Test-only: every step runs ``forward_once`` on the module tree."""

    def _step(self, net_state, frame):
        if net_state is None:
            reset_net(self.model)
        else:
            restore_net_state(self.model, net_state)
        with no_grad():
            out = self.model.forward_once(Tensor(frame))
        return out.data, snapshot_net_state(self.model)


class RecurrentNet(SpikingModel):
    def __init__(self):
        super().__init__(timesteps=4)
        rng = np.random.default_rng(0)
        self.rec = RecurrentSpikingLayer(CHANNELS, 8, rng=rng)
        self.head = Linear(8, CLASSES, rng=rng)

    def forward_once(self, x):
        return self.head(self.rec(x))


class ChainNet(SpikingModel):
    """Linear -> LIF -> Linear leaves wired by an arbitrary ``forward``."""

    def __init__(self, forward):
        super().__init__(timesteps=4)
        rng = np.random.default_rng(0)
        self.fc = Linear(CHANNELS, CHANNELS, rng=rng)
        self.lif = LIFNeuron()
        self.head = Linear(CHANNELS, CLASSES, rng=rng)
        self._forward = forward

    def forward_once(self, x):
        return self._forward(self, x)


def mlp(hidden, neuron, channels=CHANNELS, classes=CLASSES, seed=0):
    return SpikingMLP(channels, classes, hidden=hidden, timesteps=4,
                      neuron_kind=neuron, rng=np.random.default_rng(seed))


def sparse_manager(model, execution, densities=None, seed=1):
    manager = SparsityManager(model, rng=np.random.default_rng(seed))
    manager.init_random(densities or {name: 0.3 for name in manager.states})
    manager.set_execution(execution)
    return manager


def model_factory(tmp_path, hidden, neuron, manager):
    """Zero-argument builder of identical ``(model, manager)`` pairs."""
    if manager == "none":
        return lambda: (mlp(hidden, neuron), None)
    if manager in PACKED:
        model = mlp(hidden, neuron)
        model.eval()
        spec = {"model": "mlp", "kwargs": {
            "in_features": CHANNELS, "num_classes": CLASSES,
            "hidden": list(hidden), "timesteps": 4, "neuron_kind": neuron,
        }}
        path = tmp_path / f"model_{manager}.reprom"
        write_package(path, model, sparse_manager(model, "csr"), spec,
                      precision=manager)
        package = PackedModel(path)
        return lambda: build_packed_runtime(package, precision=manager)

    def build():
        model = mlp(hidden, neuron)
        densities = None
        if manager == "auto":
            # Below and above the static cutoff: both routes run.
            names = list(SparsityManager(mlp(hidden, neuron)).states)
            densities = {name: (0.1 if index % 2 == 0 else 0.6)
                         for index, name in enumerate(names)}
        return model, sparse_manager(model, manager, densities).freeze()
    return build


def make_feed(streams=2, events=10, seed=0):
    return list(make_telemetry_stream(
        num_streams=streams, num_channels=CHANNELS, num_events=events, seed=seed,
    ))


def keyed_ticks(feed, width):
    """``feed`` cut into ticks the way a stream server's shard takes them."""
    batcher = MicroBatcher(max_batch=width, max_latency_s=0.0,
                           key=lambda event: event.stream_id)
    for event in feed:
        batcher.submit(event)
    batcher.close()
    ticks = []
    while (batch := batcher.next_batch()) is not None:
        ticks.append([request.payload for request in batch])
    return ticks


def staggered_feed(streams=4, events=13):
    """Stream ``i`` drops its first ``i`` events, so window boundaries
    differ per stream and ticks mix fresh and carried states."""
    skip = {f"device-{index:02d}": index for index in range(streams)}
    kept = []
    for event in make_feed(streams=streams, events=events):
        if skip[event.stream_id]:
            skip[event.stream_id] -= 1
        else:
            kept.append(event)
    return kept


def spike_counters(model):
    return [(module.spike_count, module.neuron_steps)
            for module in model.modules() if isinstance(module, BaseNeuron)]


def assert_same_results(want, got):
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert (a.stream_id, a.timestamp, a.window_index, a.events_in_window,
                a.partial) == (b.stream_id, b.timestamp, b.window_index,
                               b.events_in_window, b.partial)
        assert a.logits.tobytes() == b.logits.tobytes()
        assert len(a.frames) == len(b.frames)
        assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))


def assert_plan_matches_modules(build, feed, **session_kwargs):
    plan_model, plan_manager = build()
    planned = StreamSession(plan_model, manager=plan_manager, **session_kwargs)
    module_model, module_manager = build()
    reference = ModulePathSession(module_model, manager=module_manager,
                                  **session_kwargs)
    assert planned.execution == "plan"

    emitted = [r for e in feed if (r := planned.process(e)) is not None]
    expected = [r for e in feed if (r := reference.process(e)) is not None]
    assert emitted  # windows actually closed
    assert planned.stats() == reference.stats()
    flushed, expected_flushed = planned.flush(), reference.flush()
    assert planned.stats() == reference.stats()
    assert spike_counters(plan_model) == spike_counters(module_model)
    assert_same_results(expected, emitted)
    assert_same_results(expected_flushed, flushed)
    for result in emitted + flushed:
        oracle = planned.offline_reference(result.frames)
        assert oracle.tobytes() == result.logits.tobytes()
    return emitted, flushed


class TestPlanMatchesModulePath:
    @pytest.mark.parametrize("manager", MANAGERS)
    @pytest.mark.parametrize("neuron", ["lif", "if"])
    @pytest.mark.parametrize("hidden", [(10,), (256, 256)], ids=["h10", "h256x2"])
    def test_models_neurons_managers(self, tmp_path, hidden, neuron, manager):
        build = model_factory(tmp_path, hidden, neuron, manager)
        # Tumbling windows with a partial tail, then sliding ones under
        # a TTL tight enough to reset some streams mid-window.
        _, flushed = assert_plan_matches_modules(
            build, make_feed(events=10), window=4)
        assert flushed and all(r.partial for r in flushed)
        assert_plan_matches_modules(
            build, make_feed(events=8, seed=1), window=3, stride=1,
            encoder="rate", ttl=0.015)

    @pytest.mark.parametrize("encoder", ["direct", "rate", "latency"])
    @pytest.mark.parametrize("staleness", ["none", "reset", "carry"])
    @pytest.mark.parametrize("stride", [None, 1], ids=["tumbling", "sliding1"])
    def test_windows_staleness_encoders(self, tmp_path, stride, staleness, encoder):
        build = model_factory(tmp_path, (10,), "lif", "csr")
        kwargs = {} if staleness == "none" else {"ttl": 0.015, "reset_policy": staleness}
        assert_plan_matches_modules(build, make_feed(streams=3, events=11),
                                    window=4, stride=stride, encoder=encoder,
                                    **kwargs)

    @pytest.mark.parametrize("staleness", ["reset", "carry"])
    def test_ttl_actually_fires(self, tmp_path, staleness):
        build = model_factory(tmp_path, (10,), "lif", "csr")
        model, manager = build()
        session = StreamSession(model, manager=manager, window=4, ttl=0.015,
                                reset_policy=staleness)
        [session.process(e) for e in make_feed(streams=3, events=11)]
        assert sum(s["stale_resets"] for s in session.stats().values()) > 0


class TestStackedTicks:
    @pytest.mark.parametrize("windows", [
        {"window": 4},
        {"window": 3, "stride": 1},
        {"window": 4, "ttl": 0.015},
    ], ids=["tumbling", "sliding", "ttl"])
    @pytest.mark.parametrize("neuron", ["lif", "if"])
    @pytest.mark.parametrize("manager", ["dense", "csr", "int8"])
    def test_ticks_match_event_by_event(self, tmp_path, manager, neuron, windows):
        # 256-wide hidden layers: a stacked dense gemm would differ from
        # per-row calls at this size, so the dense route is really pinned.
        build = model_factory(tmp_path, (256, 256), neuron, manager)
        ticked_model, ticked_manager = build()
        ticked = StreamSession(ticked_model, manager=ticked_manager,
                               encoder="rate", **windows)
        single_model, single_manager = build()
        single = StreamSession(single_model, manager=single_manager,
                               encoder="rate", **windows)
        assert ticked.execution == single.execution == "plan"
        step, rows, mixed = ticked._step, [], []

        def spying_step(state, frame):
            rows.append(len(frame))
            return step(state, frame)

        ticked._step = spying_step
        ticks = keyed_ticks(staggered_feed(), width=3)
        emitted = []
        for tick in ticks:
            buffered = {sid: per["buffered"] for sid, per in ticked.stats().items()}
            fresh = sum(buffered.get(event.stream_id, 0) == 0 for event in tick)
            rows.clear()
            emitted += [r for r in ticked.process_many(tick) if r is not None]
            # One step over the whole tick comes first.
            mixed.append(0 < fresh < len(tick) and rows[0] == len(tick))
        expected = [r for tick in ticks for e in tick if (r := single.process(e)) is not None]

        assert max(len(tick) for tick in ticks) == 3
        assert any(mixed)  # fresh and carried streams shared a step
        assert emitted
        assert_same_results(expected, emitted)
        assert_same_results(single.flush(), ticked.flush())
        assert ticked.stats() == single.stats()
        assert spike_counters(ticked_model) == spike_counters(single_model)
        for result in emitted:  # last: the oracle's passes count spikes too
            oracle = ticked.offline_reference(result.frames)
            assert np.array_equal(oracle, result.logits)
        if "ttl" in windows:
            assert sum(per["stale_resets"] for per in ticked.stats().values()) > 0


class TestFiringPlan:
    """A model whose every LIF layer fires: the spike-fed CSR products
    take the event-driven kernel on quiet steps and ``matmul`` on busy
    ones, and the plan stays bit-identical to the module path."""

    def test_both_kernels_run_bit_identically(self):
        built = []

        def build():
            # 512 x 512 at 80%: one row is past the event-driven floor.
            model = SpikingMLP(CHANNELS, CLASSES, hidden=(512, 512), timesteps=4,
                               v_threshold=0.9, rng=np.random.default_rng(0))
            manager = SparsityManager(model, rng=np.random.default_rng(1))
            first, second, head = manager.states
            manager.init_random({first: 0.5, second: 0.8, head: 0.5})
            manager.set_execution("csr")
            built.append((model, manager))
            return model, manager.freeze()

        assert_plan_matches_modules(build, make_feed(events=10), window=4)
        model, manager = built[0]  # the planned session's
        assert all(spikes >= 0.01 * steps for spikes, steps in spike_counters(model))
        counts = manager.spike_product_counts
        assert counts["event"] > 0 and counts["matmul"] > 0
        assert built[1][1].spike_product_counts == {"event": 0, "matmul": 0}


class TestEditedManagers:
    """A plan reads routes, patterns and values per call: a manager
    thawed, edited and re-frozen under a live session is served fresh."""

    @staticmethod
    def rewire(manager, density, seed):
        """New unit-scale weights and a new random topology at ``density``."""
        rng = np.random.default_rng(seed)
        for state in manager.states.values():
            state.parameter.data[...] = rng.standard_normal(state.shape).astype(np.float32)
        manager.init_random({name: density for name in manager.states})

    @pytest.mark.parametrize("density", [0.9, 0.12], ids=["to-dense", "new-csr"])
    def test_a_refrozen_manager_is_served_fresh(self, density):
        # 6 -> 64 -> 3 under auto at density 0.1: both layers start on the
        # CSR route; 0.9 flips them dense, 0.12 keeps CSR on a new pattern.
        # Wide enough, and a threshold low enough, that the windows'
        # logits differ, so a stale layer cannot pass unseen.
        model = SpikingMLP(CHANNELS, CLASSES, hidden=(64,), timesteps=4,
                           v_threshold=0.5, rng=np.random.default_rng(0))
        manager = SparsityManager(model, rng=np.random.default_rng(1))
        manager.set_execution("auto")
        self.rewire(manager, 0.1, seed=6)
        session = StreamSession(model, manager=manager.freeze(), window=4)

        def routes():
            return {manager.explain_dispatch(name)["route"] for name in manager.states}

        def assert_fresh(results):
            assert results
            assert session.execution == "plan"
            assert len({result.logits.tobytes() for result in results}) > 1
            for result in results:
                oracle = session.offline_reference(result.frames)
                assert oracle.tobytes() == result.logits.tobytes()

        assert routes() == {"csr"}
        assert_fresh([r for e in make_feed(streams=3, events=16)
                      if (r := session.process(e)) is not None])

        manager.thaw()
        self.rewire(manager, density, seed=7)
        manager.freeze()
        assert routes() == ({"dense"} if density > 0.15 else {"csr"})
        assert_fresh([r for e in make_feed(streams=3, events=16, seed=1)
                      if (r := session.process(e)) is not None])
        ticks = keyed_ticks(make_feed(streams=3, events=16, seed=2), width=3)
        assert max(len(tick) for tick in ticks) == 3
        assert_fresh([r for tick in ticks for r in session.process_many(tick)
                      if r is not None])


class TestExecution:
    @pytest.mark.parametrize("execution", ["dense", "csr"])
    def test_benchmark_shaped_sessions_run_plans(self, execution):
        # 64 -> 256 -> 256 -> 16 at 90% sparsity: perfbench's
        # stream_telemetry model (csr) and bench_streaming's cells.
        model = mlp((256, 256), "lif", channels=64, classes=16)
        manager = sparse_manager(model, execution,
                                 {name: 0.1 for name in SparsityManager(model).states})
        for stride in (None, 1):
            session = StreamSession(model, window=8, stride=stride,
                                    manager=manager.freeze())
            assert session.execution == "plan"

    def test_adaptive_session_reports_thawed_manager(self):
        model = mlp((10,), "lif")
        session = AdaptiveStreamSession(model, sparse_manager(model, "csr"))
        assert session.execution == "modules: manager is thawed"

    def test_plif_reports_the_unsupported_neuron(self):
        session = StreamSession(mlp((10,), "plif"))
        assert session.execution == "modules: unsupported leaf body.1 (ParametricLIFNeuron)"

    def test_convnet_reports_the_unsupported_layer(self):
        session = StreamSession(SpikingConvNet(image_size=8, channels=(4,),
                                               rng=np.random.default_rng(0)))
        assert session.execution == "modules: unsupported leaf features.0 (Conv2d)"

    def test_recurrent_layer_reports_its_feedback_state(self):
        # Its first step is a straight Linear -> LIF chain; the feedback
        # path only runs once it holds state, so recording cannot see it.
        session = StreamSession(RecurrentNet())
        assert session.execution == (
            "modules: unsupported stateful module rec (RecurrentSpikingLayer)")

    @pytest.mark.parametrize("build", [lambda: mlp((10,), "plif"), RecurrentNet],
                             ids=["plif", "recurrent"])
    def test_fallback_sessions_stay_bit_identical(self, build):
        session = StreamSession(build(), window=4, encoder="rate")
        results = [r for e in make_feed() if (r := session.process(e)) is not None]
        assert results
        for result in results:
            assert np.array_equal(session.offline_reference(result.frames), result.logits)

    @pytest.mark.parametrize("forward, reason", [
        (lambda m, x: m.head(m.lif(m.fc(x)) * 2.0),
         "leaf calls do not form a straight chain at head"),
        (lambda m, x: m.head(m.lif(m.fc(x))) + 0.0,
         "forward_once does not return the last leaf's output"),
        (lambda m, x: m.head(m.lif(m.fc(m.fc(x)))),
         "a leaf runs more than once per step"),
    ], ids=["chain", "output", "repeat"])
    def test_recorded_calls_must_form_one_chain(self, forward, reason):
        assert StreamSession(ChainNet(forward)).execution == f"modules: {reason}"

    def test_first_leaf_must_be_a_linear(self):
        model = ChainNet(lambda m, x: m.head(m.lif(m.fc(x))))
        model._modules.move_to_end("fc")  # registration order: lif, head, fc
        assert StreamSession(model).execution == "modules: the first leaf is not a Linear"

    def test_layers_bound_to_a_thawed_manager_keep_the_module_path(self):
        model = mlp((10,), "lif")
        sparse_manager(model, "csr")  # bound, never frozen
        assert StreamSession(model).execution == (
            "modules: body.0 is bound to a thawed manager")

    def test_compiling_leaves_no_trace_on_the_model(self):
        model = mlp((10,), "lif")
        StreamSession(model)
        assert spike_counters(model) == [(0.0, 0)]
        assert all(module.v is None for module in model.modules()
                   if isinstance(module, BaseNeuron))
        assert "forward" not in vars(model.body[0])
