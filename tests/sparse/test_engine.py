"""Unified sparsity engine: MaskedParameter, SparsityManager, and the
golden-mask regression pinning the refactor to the historical methods.

The golden digests in ``golden_masks.json`` were generated by the
pre-engine per-method implementations; every method must keep producing
bit-identical masks for the fixed-seed harness below.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Linear
from repro.optim import SGD
from repro.snn.models import SpikingConvNet, SpikingMLP
from repro.sparse import (
    ADMMPruner,
    GMPSNN,
    LTHSNN,
    NDSNN,
    RigLSNN,
    SETSNN,
    SNIPSNN,
    MaskedParameter,
    SparsityManager,
    StructuredFilterPruning,
)
from repro.tensor import Tensor, cross_entropy

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_masks.json")
ITERS, FREQ = 24, 6


def make_model():
    return SpikingMLP(in_features=16, num_classes=4, hidden=(24,), timesteps=2,
                      rng=np.random.default_rng(7))


def make_conv_model():
    return SpikingConvNet(num_classes=4, in_channels=2, image_size=8,
                          channels=(8, 16), timesteps=2,
                          rng=np.random.default_rng(7))


def train(model, method, iterations=ITERS, input_shape=(8, 16), execution=None):
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    method.bind(model, optimizer)
    if execution is not None:
        method.set_execution(execution)
    rng = np.random.default_rng(8)
    for it in range(iterations):
        x = Tensor(rng.standard_normal(input_shape).astype(np.float32))
        y = rng.integers(0, 4, 8)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(it)
        optimizer.step()
        method.after_step(it)
    return method


def mask_digests(masks):
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(mask, dtype=np.float32).tobytes()
        ).hexdigest()
        for name, mask in sorted(masks.items())
    }


METHOD_FACTORIES = {
    "ndsnn": lambda rng: NDSNN(initial_sparsity=0.4, final_sparsity=0.8,
                               total_iterations=ITERS, update_frequency=FREQ, rng=rng),
    "set": lambda rng: SETSNN(sparsity=0.7, total_iterations=ITERS,
                              update_frequency=FREQ, rng=rng),
    "rigl": lambda rng: RigLSNN(sparsity=0.7, total_iterations=ITERS,
                                update_frequency=FREQ, rng=rng),
    "gmp": lambda rng: GMPSNN(final_sparsity=0.8, total_iterations=ITERS,
                              update_frequency=FREQ, rng=rng),
    "snip": lambda rng: SNIPSNN(sparsity=0.7, rng=rng),
    "admm": lambda rng: ADMMPruner(sparsity=0.7, total_iterations=ITERS,
                                   admm_fraction=0.5, update_frequency=FREQ, rng=rng),
    "structured": lambda rng: StructuredFilterPruning(
        final_sparsity=0.5, total_iterations=ITERS, update_frequency=FREQ, rng=rng),
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.smoke
class TestGoldenMasks:
    """All eight methods reproduce their pre-refactor masks bit-exactly."""

    @pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
    def test_method_masks_match_golden(self, name, golden):
        model = make_model()
        method = train(model, METHOD_FACTORIES[name](np.random.default_rng(9)))
        assert mask_digests(method.masks.copy_masks()) == golden[name]

    def test_set_short_horizon_freezes_topology(self):
        # Historical SET semantics: with the stop iteration below the
        # first update multiple, no drop/grow round ever runs (the base
        # engine's min-one-round clamp must not apply to SET).
        model = make_model()
        method = SETSNN(sparsity=0.7, total_iterations=ITERS,
                        update_frequency=FREQ, stop_fraction=0.1,
                        rng=np.random.default_rng(9))
        train(model, method)
        assert method.history == []

    def test_lth_masks_match_golden(self, golden):
        model = make_model()
        controller = LTHSNN(model, target_sparsity=0.7, rounds=2,
                            rng=np.random.default_rng(9))
        train(model, controller.method_for_round(1))
        controller.prune(1)
        digests = mask_digests({n: m.copy() for n, m in controller.masks.items()})
        assert digests == golden["lth"]

    @pytest.mark.parametrize("execution", ["dense", "auto"])
    def test_ndsnn_convnet_masks_match_golden(self, execution, golden):
        # Covers the convolution lowering end to end: masks follow weight
        # magnitudes and dense gradients, so a conv or pooling change that
        # moves training beyond rounding shows up here (the bits are
        # pinned in tests/tensor/test_conv.py).  Under ``auto`` the
        # sparsest layers flip onto the CSR conv route mid-run (static
        # cutoff, no calibration).
        model = make_conv_model()
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.95,
                       total_iterations=ITERS, update_frequency=FREQ,
                       rng=np.random.default_rng(9))
        train(model, method, input_shape=(8, 2, 8, 8), execution=execution)
        took_csr = method.masks.dispatch_counts["csr"] > 0
        assert took_csr == (execution == "auto")
        assert mask_digests(method.masks.copy_masks()) == golden[f"ndsnn_convnet_{execution}"]


@pytest.mark.smoke
class TestMaskedParameter:
    def _state(self, shape=(6, 8), seed=0):
        layer = Linear(shape[1], shape[0], rng=np.random.default_rng(seed))
        return MaskedParameter("weight", layer.weight)

    def test_starts_dense(self):
        state = self._state()
        assert state.density() == 1.0
        assert state.nonzero_count() == state.size

    def test_drop_by_magnitude_zeroes_smallest(self):
        state = self._state()
        dropped = state.drop_by_magnitude(10)
        assert dropped.size == 10
        flat = state.parameter.data.reshape(-1)
        assert np.all(flat[dropped] == 0.0)
        # The surviving weights are all at least as large as the largest drop.
        survivors = np.abs(flat[np.flatnonzero(state.mask.reshape(-1))])
        assert survivors.min() >= 0.0
        assert state.nonzero_count() == state.size - 10

    def test_grow_by_score_picks_top_scores(self):
        state = self._state()
        state.drop_by_magnitude(20)
        scores = np.zeros(state.shape, dtype=np.float32)
        inactive = np.flatnonzero(state.mask.reshape(-1) == 0)
        best = inactive[:5]
        scores.reshape(-1)[best] = 1.0
        grown = state.grow_by_score(5, scores)
        assert set(grown.tolist()) == set(best.tolist())
        # Grown weights start at zero.
        assert np.all(state.parameter.data.reshape(-1)[grown] == 0.0)

    def test_pattern_version_tracks_edits(self):
        state = self._state()
        version = state.pattern_version
        state.drop_by_magnitude(3)
        assert state.pattern_version > version
        version = state.pattern_version
        state.grow_random(2, np.random.default_rng(0))
        assert state.pattern_version > version

    def test_csr_pattern_cache_invalidation(self):
        state = self._state()
        state.drop_by_magnitude(12)
        first = state.csr_pattern()
        assert first is state.csr_pattern()  # cached
        state.drop_by_magnitude(1)
        assert state.csr_pattern() is not first  # invalidated


@pytest.mark.smoke
class TestSparsityManager:
    def _manager(self, seed=0):
        model = SpikingConvNet(num_classes=4, in_channels=2, image_size=8,
                               channels=(8, 12), timesteps=2,
                               rng=np.random.default_rng(seed))
        return model, SparsityManager(model, rng=np.random.default_rng(seed + 1))

    def test_states_share_mask_storage(self):
        _, manager = self._manager()
        for name, state in manager.states.items():
            assert manager.masks[name] is state.mask
            assert manager.parameters[name] is state.parameter

    def test_init_distribution_sets_targets(self):
        _, manager = self._manager()
        densities = manager.init_distribution("uniform", 0.2)
        assert abs(manager.density() - 0.2) < 0.05
        for name, state in manager.states.items():
            assert state.density_target == densities[name]

    @pytest.mark.parametrize("init", ["init_random", "init_from_magnitude"])
    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan")])
    def test_init_rejects_density_outside_unit_interval(self, init, bad):
        _, manager = self._manager()
        densities = {name: 0.5 for name in manager.states}
        layer = sorted(densities)[-1]
        densities[layer] = bad
        with pytest.raises(ValueError, match=f"layer '{layer}'"):
            getattr(manager, init)(densities)

    def test_bind_layers_attaches_state(self):
        model, manager = self._manager()
        bound = manager.bind_layers()
        assert bound == len(manager.states)
        bound_states = [
            module.weight_state
            for module in model.modules()
            if isinstance(module, (Linear, Conv2d)) and module.weight_state is not None
        ]
        assert len(bound_states) == len(manager.states)

    def test_execution_dispatch_by_density(self):
        _, manager = self._manager()
        manager.init_distribution("uniform", 0.1)
        state = next(iter(manager.states.values()))
        assert manager.route(state) == "dense"  # dense by default
        manager.set_execution("auto")
        assert manager.route(state) == "csr"  # 10% density < threshold
        manager.init_distribution("uniform", 0.9)
        assert manager.route(state) == "dense"  # too dense for auto
        manager.set_execution("csr")
        assert manager.route(state) == "csr"

    def test_rejects_unknown_execution(self):
        _, manager = self._manager()
        with pytest.raises(ValueError):
            manager.set_execution("quantum")

    def test_global_magnitude_threshold_matches_manual(self):
        _, manager = self._manager()
        threshold = manager.global_magnitude_threshold(0.75)
        survivors = sum(
            int((np.abs(state.parameter.data) >= threshold).sum())
            for state in manager.states.values()
        )
        expected = round(0.25 * manager.total_weights)
        assert abs(survivors - expected) <= len(manager.states) * 4
