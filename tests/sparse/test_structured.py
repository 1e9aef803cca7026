"""Structured filter pruning extension."""

import numpy as np
import pytest

from repro.optim import SGD
from repro.snn.models import SpikingConvNet, SpikingMLP
from repro.sparse import StructuredFilterPruning, filter_norms
from repro.tensor import Tensor, cross_entropy


def make_model(seed=0):
    return SpikingConvNet(
        num_classes=4, in_channels=2, image_size=8, channels=(8, 12),
        timesteps=2, rng=np.random.default_rng(seed),
    )


def run_iterations(model, method, iterations, seed=1):
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    method.bind(model, optimizer)
    for iteration in range(iterations):
        x = Tensor(rng.standard_normal((4, 2, 8, 8)).astype(np.float32))
        y = rng.integers(0, 4, 4)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)


class TestFilterNorms:
    def test_conv_norms(self):
        weight = np.zeros((3, 2, 2, 2), dtype=np.float32)
        weight[1] = 1.0
        norms = filter_norms(weight)
        assert norms[0] == 0.0
        assert np.isclose(norms[1], np.sqrt(8.0))

    def test_linear_norms(self):
        weight = np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
        assert np.allclose(filter_norms(weight), [5.0, 0.0])

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            filter_norms(np.zeros(3))


class TestStructuredPruning:
    def test_whole_filters_removed(self):
        model = make_model()
        method = StructuredFilterPruning(
            final_sparsity=0.5, total_iterations=40, update_frequency=10,
            rng=np.random.default_rng(0),
        )
        run_iterations(model, method, 40)
        for name in method._prunable_layers():
            parameter = method.masks.parameters[name]
            mask = method.masks.masks[name]
            for filter_index in range(parameter.shape[0]):
                filter_mask = mask[filter_index]
                # Each filter is either fully alive or fully dead.
                assert filter_mask.min() == filter_mask.max()

    def test_filter_sparsity_approaches_target(self):
        model = make_model(seed=1)
        method = StructuredFilterPruning(
            final_sparsity=0.5, total_iterations=40, update_frequency=10,
            rng=np.random.default_rng(1),
        )
        run_iterations(model, method, 40)
        fractions = method.filter_sparsity()
        pruned_layers = [fractions[name] for name in method._prunable_layers()]
        assert all(0.3 <= fraction <= 0.6 for fraction in pruned_layers)

    def test_last_layer_protected(self):
        model = make_model(seed=2)
        method = StructuredFilterPruning(
            final_sparsity=0.6, total_iterations=30, update_frequency=10,
            rng=np.random.default_rng(2),
        )
        run_iterations(model, method, 30)
        last = list(method.masks.masks)[-1]
        assert method.masks.masks[last].min() == 1.0

    def test_lowest_norm_filters_die_first(self):
        model = SpikingMLP(in_features=8, num_classes=3, hidden=(10,),
                           timesteps=2, rng=np.random.default_rng(3))
        method = StructuredFilterPruning(
            final_sparsity=0.3, total_iterations=20, update_frequency=10,
            rng=np.random.default_rng(3),
        )
        optimizer = SGD(model.parameters(), lr=1e-12)  # effectively frozen
        method.bind(model, optimizer)
        name = method._prunable_layers()[0]
        norms_before = filter_norms(method.masks.parameters[name].data)
        rng = np.random.default_rng(4)
        for iteration in range(20):
            x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
            y = rng.integers(0, 3, 4)
            loss = cross_entropy(model(x), y)
            optimizer.zero_grad()
            loss.backward()
            method.after_backward(iteration)
            optimizer.step()
            method.after_step(iteration)
        dead = method.pruned_filters[name]
        if dead:
            alive = [i for i in range(len(norms_before)) if i not in dead]
            assert max(norms_before[dead]) <= min(norms_before[alive]) + 1e-6

    def test_never_kills_all_filters(self):
        model = make_model(seed=5)
        method = StructuredFilterPruning(
            final_sparsity=0.99, total_iterations=30, update_frequency=5,
            rng=np.random.default_rng(5),
        )
        run_iterations(model, method, 30)
        for name in method._prunable_layers():
            assert method.masks.nonzero_count(name) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            StructuredFilterPruning(final_sparsity=0.0)
        with pytest.raises(ValueError):
            StructuredFilterPruning(final_sparsity=1.0)

    def test_zero_update_frequency_rejected_at_construction(self):
        with pytest.raises(ValueError, match="update_frequency must be >= 1"):
            StructuredFilterPruning(update_frequency=0)
