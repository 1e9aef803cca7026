"""SparsityManager: init, enforcement, drop/grow primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import SparsityManager, sparsifiable_parameters
from repro.tensor import Tensor, cross_entropy


def manager(tiny_convnet, seed=0):
    return SparsityManager(tiny_convnet, rng=np.random.default_rng(seed))


class TestSelection:
    def test_only_multidim_weights(self, tiny_convnet):
        names = [name for name, _ in sparsifiable_parameters(tiny_convnet)]
        assert all("bias" not in name for name in names)
        # Conv weights and the classifier weight are included.
        assert any("classifier.weight" in name for name in names)
        assert any(name.endswith("0.weight") for name in names)

    def test_exclusion(self, tiny_convnet):
        all_names = [n for n, _ in sparsifiable_parameters(tiny_convnet)]
        kept = [n for n, _ in sparsifiable_parameters(tiny_convnet, exclude=all_names[:1])]
        assert all_names[0] not in kept

    def test_bn_weights_stay_dense(self, tiny_convnet):
        names = [name for name, _ in sparsifiable_parameters(tiny_convnet)]
        bn_names = [
            name for name, p in tiny_convnet.named_parameters()
            if p.ndim == 1 and "bias" not in name
        ]
        assert bn_names  # the fixture has BN layers
        assert not set(bn_names) & set(names)


class TestInitialisation:
    def test_random_init_counts(self, tiny_convnet):
        masks = manager(tiny_convnet)
        densities = {name: 0.25 for name in masks.masks}
        masks.init_random(densities)
        for name in masks.masks:
            expected = max(1, int(round(0.25 * masks.layer_size(name))))
            assert masks.nonzero_count(name) == expected

    def test_init_applies_masks_to_weights(self, tiny_convnet):
        masks = manager(tiny_convnet)
        masks.init_random({name: 0.5 for name in masks.masks})
        for name, parameter in masks.parameters.items():
            inactive = masks.masks[name] == 0
            assert np.all(parameter.data[inactive] == 0.0)

    def test_magnitude_init_keeps_largest(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        parameter = masks.parameters[name]
        flat = np.abs(parameter.data.reshape(-1))
        masks.init_from_magnitude({n: 0.5 for n in masks.masks})
        kept = np.abs(parameter.data.reshape(-1))[masks.masks[name].reshape(-1) > 0]
        dropped_max = flat[masks.masks[name].reshape(-1) == 0].max()
        assert kept.min() >= dropped_max - 1e-7

    def test_sparsity_reporting(self, tiny_convnet):
        masks = manager(tiny_convnet)
        masks.init_random({name: 0.2 for name in masks.masks})
        assert 0.75 < masks.sparsity() < 0.85
        assert np.isclose(masks.density(), 1 - masks.sparsity())
        distribution = masks.sparsity_distribution()
        assert set(distribution) == set(masks.masks)

    def test_set_mask_shape_check(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        with pytest.raises(ValueError):
            masks.set_mask(name, np.ones((1, 1), dtype=np.float32))

    def test_copy_load_roundtrip(self, tiny_convnet):
        masks = manager(tiny_convnet)
        masks.init_random({name: 0.3 for name in masks.masks})
        snapshot = masks.copy_masks()
        masks.init_random({name: 0.8 for name in masks.masks})
        masks.load_masks(snapshot)
        for name in masks.masks:
            assert np.array_equal(masks.masks[name], snapshot[name])


class TestEnforcement:
    def test_gradient_masking(self, tiny_convnet):
        masks = manager(tiny_convnet)
        masks.init_random({name: 0.3 for name in masks.masks})
        x = Tensor(np.random.default_rng(1).standard_normal((2, 2, 8, 8)).astype(np.float32))
        loss = cross_entropy(tiny_convnet(x), np.array([0, 1]))
        loss.backward()
        masks.apply_to_gradients()
        for name, parameter in masks.parameters.items():
            inactive = masks.masks[name] == 0
            assert np.all(parameter.grad[inactive] == 0.0)

    def test_apply_masks_idempotent(self, tiny_convnet):
        masks = manager(tiny_convnet)
        masks.init_random({name: 0.4 for name in masks.masks})
        before = {n: p.data.copy() for n, p in masks.parameters.items()}
        masks.apply_masks()
        for name, parameter in masks.parameters.items():
            assert np.array_equal(parameter.data, before[name])


class TestDropGrow:
    def test_drop_removes_smallest(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        parameter = masks.parameters[name]
        before_active = int(masks.masks[name].sum())
        dropped = masks.states[name].drop_by_magnitude(5)
        assert dropped.size == 5
        assert masks.nonzero_count(name) == before_active - 5
        assert np.all(parameter.data.reshape(-1)[dropped] == 0.0)

    def test_drop_zero_count_is_noop(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        assert masks.states[name].drop_by_magnitude(0).size == 0

    def test_drop_chooses_least_magnitude(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        parameter = masks.parameters[name]
        flat = np.abs(parameter.data.reshape(-1)).copy()
        dropped = masks.states[name].drop_by_magnitude(3)
        survivors = np.flatnonzero(masks.masks[name].reshape(-1))
        assert flat[dropped].max() <= flat[survivors].min() + 1e-7

    def test_grow_by_score_picks_top(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        masks.init_random({n: 0.2 for n in masks.masks})
        scores = np.random.default_rng(2).random(masks.parameters[name].shape)
        inactive_before = np.flatnonzero(masks.masks[name].reshape(-1) == 0)
        grown = masks.states[name].grow_by_score(4, scores)
        assert grown.size == 4
        flat_scores = scores.reshape(-1)
        not_grown = np.setdiff1d(inactive_before, grown)
        assert flat_scores[grown].min() >= flat_scores[not_grown].max() - 1e-12

    def test_grown_weights_start_at_zero(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        masks.init_random({n: 0.2 for n in masks.masks})
        parameter = masks.parameters[name]
        grown = masks.states[name].grow_random(6, masks.rng)
        assert np.all(parameter.data.reshape(-1)[grown] == 0.0)
        assert np.all(masks.masks[name].reshape(-1)[grown] == 1.0)

    def test_grow_respects_available_space(self, tiny_convnet):
        masks = manager(tiny_convnet)
        name = next(iter(masks.masks))
        # All weights already active: nothing to grow.
        grown = masks.states[name].grow_random(100, masks.rng)
        assert grown.size == 0


@settings(max_examples=20, deadline=None)
@given(density=st.floats(min_value=0.05, max_value=0.95))
def test_drop_then_grow_restores_count(density):
    """Drop k then grow k leaves the active count unchanged."""
    from repro.snn.models import SpikingMLP

    model = SpikingMLP(in_features=20, num_classes=4, hidden=(16,), rng=np.random.default_rng(0))
    masks = SparsityManager(model, rng=np.random.default_rng(1))
    masks.init_random({name: density for name in masks.masks})
    name = next(iter(masks.masks))
    before = masks.nonzero_count(name)
    k = max(1, before // 4)
    dropped = masks.states[name].drop_by_magnitude(k)
    grown = masks.states[name].grow_random(dropped.size, masks.rng)
    assert masks.nonzero_count(name) == before - dropped.size + grown.size
    assert dropped.size == grown.size or grown.size == 0
