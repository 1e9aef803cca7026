"""Frozen serving sessions run as flat plans, bit-identical to the module path.

The oracle is the module path itself: a twin session built from the same
artifact runs ``model(Tensor(chunk))`` over the same chunks, padded to
the same ``max_batch``, and every ``predict`` must match it byte for
byte, neuron spike counters included.  The widths are large enough that
per-row dense products sum in another order than one gemm over the
padded chunk, so a plan whose dense route ran row by row fails here.

``execution`` must say ``"plan"`` wherever a plan is expected, or a
silent fallback to the module path would pass every identity check; a
session that cannot run a plan must name its reason and predict exactly
as the module path does.
"""

import numpy as np
import pytest

from repro.optim import SGD
from repro.serve import InferenceSession
from repro.snn import PoissonEncoder
from repro.snn.models import SpikingConvNet, SpikingMLP
from repro.snn.neuron import BaseNeuron
from repro.sparse import SETSNN, SparsityManager
from repro.sparse.packaging import PackedModel, build_packed_runtime, write_package
from repro.stream import plan
from repro.tensor import Tensor, no_grad
from repro.train.checkpoint import restore_manager, save_checkpoint

IN_FEATURES = 64
CLASSES = 5
HIDDEN = (96, 48)
TIMESTEPS = 3
# Low enough that every hidden layer spikes, so the head's dense
# products reach the logits.
THRESHOLD = 0.2
CHECKPOINTS = ("dense", "csr", "auto")
PACKED = ("f32", "f16", "int8")


def mlp(neuron="lif", seed=0, **kwargs):
    return SpikingMLP(IN_FEATURES, CLASSES, hidden=HIDDEN, timesteps=TIMESTEPS,
                      neuron_kind=neuron, v_threshold=THRESHOLD,
                      rng=np.random.default_rng(seed), **kwargs)


def mixed_densities(manager):
    """Below and above the static cutoff, so ``auto`` runs both routes."""
    return {name: (0.6 if index % 2 == 0 else 0.1)
            for index, name in enumerate(manager.states)}


def factory(tmp_path, neuron, source):
    """Zero-argument builder of identical ``(model, manager)`` pairs.

    Checkpoint sources restore a trained-method checkpoint at that
    execution mode; packaged ones load a ``.reprom`` file exported at
    ``auto`` (so the f32 runtime serves dense and CSR layers) at that
    runtime precision.
    """
    model = mlp(neuron)
    method = SETSNN(sparsity=0.7, total_iterations=8, update_frequency=4,
                    rng=np.random.default_rng(1))
    method.bind(model, SGD(model.parameters(), lr=0.1))
    method.masks.init_random(mixed_densities(method.masks))
    method.masks.apply_masks()
    if source in CHECKPOINTS:
        path = tmp_path / f"ckpt_{neuron}"
        save_checkpoint(path, model, method)

        def build():
            rebuilt = mlp(neuron, seed=9)
            return rebuilt, restore_manager(path, rebuilt, source)
        return build
    method.masks.set_execution("auto")
    spec = {"model": "mlp", "kwargs": {
        "in_features": IN_FEATURES, "num_classes": CLASSES, "hidden": list(HIDDEN),
        "timesteps": TIMESTEPS, "neuron_kind": neuron, "v_threshold": THRESHOLD,
    }}
    path = tmp_path / f"model_{neuron}.reprom"
    write_package(path, model, method.masks, spec, precision=source)
    package = PackedModel(path)
    return lambda: build_packed_runtime(package, precision=source)


def module_predict(session, inputs):
    """``session.predict`` as the module path runs it: padded chunks
    through ``model(Tensor(chunk))``."""
    data = np.asarray(inputs, dtype=np.float32)
    outputs = []
    with no_grad():
        for start in range(0, len(data), session.max_batch):
            chunk = data[start:start + session.max_batch]
            rows = len(chunk)
            pad = np.zeros((session.max_batch - rows,) + chunk.shape[1:], np.float32)
            out = session.model(Tensor(np.concatenate([chunk, pad]))).data
            outputs.append(out[:rows])
    return np.concatenate(outputs)


def spike_counters(model):
    return [(module.spike_count, module.neuron_steps)
            for module in model.modules() if isinstance(module, BaseNeuron)]


def inputs(rows, seed=3, shape=(IN_FEATURES,)):
    # Scaled so every layer spikes at a healthy rate.
    return (2.0 * np.random.default_rng(seed).standard_normal((rows,) + shape)).astype(np.float32)


def assert_matches_module_path(session, reference, batches):
    for batch in batches:
        produced = session.predict(batch)
        expected = module_predict(reference, batch)
        assert produced.dtype == np.float32
        assert produced.tobytes() == expected.tobytes()
        assert spike_counters(session.model) == spike_counters(reference.model)


@pytest.mark.parametrize("max_batch", (1, 8))
@pytest.mark.parametrize("source", CHECKPOINTS + PACKED)
@pytest.mark.parametrize("neuron", ("lif", "if"))
def test_plan_predict_matches_module_path(tmp_path, neuron, source, max_batch):
    build = factory(tmp_path, neuron, source)
    session = InferenceSession(*build(), max_batch=max_batch)
    reference = InferenceSession(*build(), max_batch=max_batch)
    assert session.execution == "plan"
    routes = {entry["route"] for entry in session.dispatch_report()}
    assert routes == ({"dense", "csr"} if source in ("auto", "f32") else
                      {source} if source in CHECKPOINTS else {"csr"})
    # 11 rows: full chunks then a padded one; 3 rows: one short chunk.
    assert_matches_module_path(session, reference, [inputs(11), inputs(3, seed=4)])
    assert all(spikes > 0 for spikes, _ in spike_counters(session.model))


def test_the_direct_encoded_prefix_runs_once_per_chunk(tmp_path, monkeypatch):
    session = InferenceSession(*factory(tmp_path, "lif", "dense")(), max_batch=8)
    first = session.model.body[0]
    calls = []
    original = plan._Linear.__call__

    def counted(op, x, batched):
        calls.append(op.layer is first)
        return original(op, x, batched)

    monkeypatch.setattr(plan._Linear, "__call__", counted)
    session.predict(inputs(11))
    # Two chunks: the first layer once each, the other two every timestep.
    assert calls.count(True) == 2
    assert calls.count(False) == 2 * TIMESTEPS * 2


def test_an_nchw_batch_matches_the_module_path(tmp_path):
    # SpikingMLP.forward_once flattens (N, C, H, W) batches itself.
    build = factory(tmp_path, "lif", "auto")
    session = InferenceSession(*build(), max_batch=8)
    reference = InferenceSession(*build(), max_batch=8)
    images = inputs(5, shape=(4, 4, 4))
    assert_matches_module_path(session, reference, [images, images[:1]])
    assert session.execution == "plan"


def frozen(model, execution="csr"):
    manager = SparsityManager(model, rng=np.random.default_rng(1))
    manager.init_random({name: 0.3 for name in manager.states})
    manager.set_execution(execution)
    return model, manager


class WindowOverride(SpikingMLP):
    def forward_window(self, frames):
        return super().forward_window(frames) * 2.0


def poisson_mlp():
    model = mlp()
    model.encoder = PoissonEncoder(TIMESTEPS, seed=5)
    return model


FALLBACKS = {
    "convnet": (lambda: SpikingConvNet(num_classes=CLASSES, image_size=8, channels=(4, 8),
                                       timesteps=TIMESTEPS, rng=np.random.default_rng(0)),
                (3, 8, 8), "modules: unsupported leaf features.0 (Conv2d)"),
    "plif": (lambda: mlp("plif"), (IN_FEATURES,),
             "modules: unsupported leaf body.1 (ParametricLIFNeuron)"),
    "alif": (lambda: mlp("alif"), (IN_FEATURES,),
             "modules: unsupported leaf body.1 (AdaptiveLIFNeuron)"),
    "poisson": (poisson_mlp, (IN_FEATURES,),
                "modules: the encoder is not direct (PoissonEncoder)"),
    "override": (lambda: WindowOverride(IN_FEATURES, CLASSES, hidden=HIDDEN,
                                        timesteps=TIMESTEPS, rng=np.random.default_rng(0)),
                 (IN_FEATURES,), "modules: WindowOverride overrides forward_window"),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_unsupported_models_keep_the_module_path(name):
    build, shape, execution = FALLBACKS[name]
    session = InferenceSession(*frozen(build()), max_batch=4)
    reference = InferenceSession(*frozen(build()), max_batch=4)
    assert session.execution == execution
    assert_matches_module_path(session, reference,
                               [inputs(6, shape=shape), inputs(2, seed=8, shape=shape)])


def test_a_thawed_manager_runs_modules_and_an_edited_one_recompiles():
    session = InferenceSession(*frozen(mlp(), "auto"), max_batch=4)
    reference = InferenceSession(*frozen(mlp(), "auto"), max_batch=4)
    assert session.execution == "plan"
    for twin in (session, reference):
        twin.manager.thaw()
    assert session.execution == "plan"
    assert_matches_module_path(session, reference, [inputs(5)])
    # A topology edit that flips the first layer to the dense route,
    # then a re-freeze: the same plan runs the new routes.
    for twin in (session, reference):
        twin.manager.init_random({name: 0.6 for name in twin.manager.states})
        twin.manager.freeze()
    assert session.execution == "plan"
    assert {entry["route"] for entry in session.dispatch_report()} == {"dense"}
    assert_matches_module_path(session, reference, [inputs(5, seed=6)])


def test_a_frozen_manager_re_routed_is_served_at_once():
    session = InferenceSession(*frozen(mlp(), "csr"), max_batch=4)
    reference = InferenceSession(*frozen(mlp(), "csr"), max_batch=4)
    for execution, route in (("dense", "dense"), ("csr", "csr"), ("auto", "dense")):
        for twin in (session, reference):
            twin.manager.set_execution(execution)
        assert session.execution == "plan"
        assert {entry["route"] for entry in session.dispatch_report()} == {route}
        assert_matches_module_path(session, reference, [inputs(5, seed=7)])


@pytest.mark.parametrize("name", ("plan", "modules"))
def test_an_empty_batch_is_a_named_error(name):
    if name == "plan":
        session, shape = InferenceSession(*frozen(mlp()), max_batch=4), (IN_FEATURES,)
    else:
        build, shape, _ = FALLBACKS["convnet"]
        session = InferenceSession(*frozen(build()), max_batch=4)
    assert session.execution.startswith(name)
    with pytest.raises(ValueError, match="at least one row"):
        session.predict(np.zeros((0,) + shape, dtype=np.float32))
