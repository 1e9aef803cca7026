"""LTH-SNN: iterative magnitude pruning with rewinding."""

import numpy as np
import pytest

from repro.sparse import LTHSNN, StaticMaskMethod
from repro.snn.models import SpikingMLP
from repro.optim import SGD
from repro.tensor import Tensor, cross_entropy


def make_model(seed=0):
    return SpikingMLP(
        in_features=20, num_classes=3, hidden=(24,), timesteps=2,
        rng=np.random.default_rng(seed),
    )


def train_steps(model, method, steps, seed=1):
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    method.bind(model, optimizer)
    for iteration in range(steps):
        x = Tensor(rng.standard_normal((6, 20)).astype(np.float32))
        y = rng.integers(0, 3, 6)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)


class TestSchedule:
    def test_geometric_sparsity_schedule(self):
        model = make_model()
        controller = LTHSNN(model, target_sparsity=0.9, rounds=3)
        values = [controller.sparsity_for_round(r) for r in (1, 2, 3)]
        assert np.isclose(values[-1], 0.9)
        # Geometric: keep fraction shrinks by the same factor each round.
        keeps = [1 - v for v in values]
        ratios = [keeps[i + 1] / keeps[i] for i in range(2)]
        assert np.allclose(ratios, ratios[0])

    def test_round_index_validation(self):
        controller = LTHSNN(make_model(), target_sparsity=0.9, rounds=2)
        with pytest.raises(ValueError):
            controller.sparsity_for_round(0)
        with pytest.raises(ValueError):
            controller.sparsity_for_round(3)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LTHSNN(make_model(), target_sparsity=1.5)
        with pytest.raises(ValueError):
            LTHSNN(make_model(), target_sparsity=0.9, rounds=0)
        with pytest.raises(ValueError):
            LTHSNN(make_model(), target_sparsity=0.9, scope="telepathic")


class TestPruning:
    def test_global_prune_reaches_sparsity(self):
        model = make_model(seed=1)
        controller = LTHSNN(model, target_sparsity=0.8, rounds=2)
        method = controller.method_for_round(1)
        train_steps(model, method, 10)
        controller.prune(1)
        assert abs(controller.current_sparsity() - controller.sparsity_for_round(1)) < 0.02

    def test_global_prune_uses_single_threshold(self):
        model = make_model(seed=2)
        controller = LTHSNN(model, target_sparsity=0.7, rounds=1)
        train_steps(model, controller.method_for_round(1), 5)
        controller.prune(1)
        surviving_min = np.inf
        pruned_max = 0.0
        for name, parameter in controller.parameters.items():
            mask = controller.masks[name]
            magnitudes = np.abs(parameter.data)
            if mask.sum():
                surviving_min = min(surviving_min, magnitudes[mask > 0].min())
            if (mask == 0).sum():
                pruned_max = max(pruned_max, magnitudes[mask == 0].max())
        assert surviving_min >= pruned_max - 1e-7

    def test_layerwise_scope(self):
        model = make_model(seed=3)
        controller = LTHSNN(model, target_sparsity=0.6, rounds=1, scope="layerwise")
        train_steps(model, controller.method_for_round(1), 5)
        controller.prune(1)
        for name in controller.masks:
            layer_sparsity = 1 - controller.masks[name].sum() / controller.masks[name].size
            assert abs(layer_sparsity - 0.6) < 0.05

    def test_masks_monotone_across_rounds(self):
        """Once pruned, a weight never returns (IMP invariant)."""
        model = make_model(seed=4)
        controller = LTHSNN(model, target_sparsity=0.9, rounds=3)
        previous = None
        for round_index in (1, 2, 3):
            train_steps(model, controller.method_for_round(round_index), 8, seed=round_index)
            controller.prune(round_index)
            current = {n: m.copy() for n, m in controller.masks.items()}
            if previous is not None:
                for name in current:
                    revived = (current[name] > 0) & (previous[name] == 0)
                    assert not revived.any()
            previous = current
            controller.rewind()


class TestRewinding:
    def test_rewind_restores_initial_values_under_mask(self):
        model = make_model(seed=5)
        controller = LTHSNN(model, target_sparsity=0.5, rounds=1)
        initial = {n: p.data.copy() for n, p in controller.parameters.items()}
        train_steps(model, controller.method_for_round(1), 10)
        controller.prune(1)
        controller.rewind()
        for name, parameter in controller.parameters.items():
            mask = controller.masks[name]
            assert np.allclose(parameter.data[mask > 0], initial[name][mask > 0])
            assert np.all(parameter.data[mask == 0] == 0.0)

    def test_method_for_round_one_is_dense(self):
        controller = LTHSNN(make_model(seed=6), target_sparsity=0.9, rounds=2)
        method = controller.method_for_round(1)
        assert isinstance(method, StaticMaskMethod)
        model = make_model(seed=6)
        method.bind(model, SGD(model.parameters(), lr=0.1))
        assert method.sparsity() == 0.0
