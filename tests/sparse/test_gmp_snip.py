"""GMP and SNIP extension baselines."""

import numpy as np
import pytest

from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import GMPSNN, SNIPSNN
from repro.tensor import Tensor, cross_entropy


def make_model(seed=0):
    return SpikingMLP(
        in_features=24, num_classes=4, hidden=(32,), timesteps=2,
        rng=np.random.default_rng(seed),
    )


def run_iterations(model, method, iterations, seed=1):
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    method.bind(model, optimizer)
    for iteration in range(iterations):
        x = Tensor(rng.standard_normal((8, 24)).astype(np.float32))
        y = rng.integers(0, 4, 8)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)


class TestGMP:
    def test_reaches_target_sparsity(self):
        model = make_model()
        method = GMPSNN(final_sparsity=0.9, total_iterations=50, update_frequency=10,
                        rng=np.random.default_rng(0))
        run_iterations(model, method, 50)
        assert abs(method.sparsity() - 0.9) < 0.02

    def test_starts_dense_by_default(self):
        model = make_model()
        method = GMPSNN(final_sparsity=0.9, total_iterations=50, update_frequency=10)
        method.bind(model, SGD(model.parameters(), lr=0.05))
        assert method.sparsity() == 0.0

    def test_can_start_sparse(self):
        model = make_model()
        method = GMPSNN(initial_sparsity=0.5, final_sparsity=0.9,
                        total_iterations=50, update_frequency=10,
                        rng=np.random.default_rng(1))
        method.bind(model, SGD(model.parameters(), lr=0.05))
        assert abs(method.sparsity() - 0.5) < 0.05

    def test_no_regrowth(self):
        """Once a weight is pruned it stays pruned (unlike NDSNN)."""
        model = make_model(seed=2)
        method = GMPSNN(final_sparsity=0.8, total_iterations=40, update_frequency=10,
                        rng=np.random.default_rng(2))
        optimizer = SGD(model.parameters(), lr=0.05)
        method.bind(model, optimizer)
        rng = np.random.default_rng(3)
        previous_masks = None
        for iteration in range(40):
            x = Tensor(rng.standard_normal((8, 24)).astype(np.float32))
            y = rng.integers(0, 4, 8)
            loss = cross_entropy(model(x), y)
            optimizer.zero_grad()
            loss.backward()
            method.after_backward(iteration)
            optimizer.step()
            method.after_step(iteration)
            current = method.masks.copy_masks()
            if previous_masks is not None:
                for name in current:
                    revived = (current[name] > 0) & (previous_masks[name] == 0)
                    assert not revived.any()
            previous_masks = current

    def test_sparsity_monotone(self):
        model = make_model(seed=4)
        method = GMPSNN(final_sparsity=0.95, total_iterations=60, update_frequency=10,
                        rng=np.random.default_rng(4))
        run_iterations(model, method, 60)
        trace = [record.sparsity_after for record in method.history]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            GMPSNN(initial_sparsity=0.9, final_sparsity=0.5)


class TestSNIP:
    def test_prunes_after_calibration(self):
        model = make_model(seed=5)
        method = SNIPSNN(sparsity=0.8, calibration_batches=2, rng=np.random.default_rng(5))
        run_iterations(model, method, 5)
        assert abs(method.sparsity() - 0.8) < 0.02

    def test_dense_before_calibration(self):
        model = make_model(seed=6)
        method = SNIPSNN(sparsity=0.8, calibration_batches=3)
        method.bind(model, SGD(model.parameters(), lr=0.05))
        assert method.sparsity() == 0.0

    def test_mask_static_after_calibration(self):
        model = make_model(seed=7)
        method = SNIPSNN(sparsity=0.7, calibration_batches=1, rng=np.random.default_rng(7))
        run_iterations(model, method, 3)
        masks_after = method.masks.copy_masks()
        run_more = make_model  # noqa: F841
        # continue training with the same bound method
        rng = np.random.default_rng(8)
        optimizer = method.optimizer
        for iteration in range(3, 10):
            x = Tensor(rng.standard_normal((8, 24)).astype(np.float32))
            y = rng.integers(0, 4, 8)
            loss = cross_entropy(model(x), y)
            optimizer.zero_grad()
            loss.backward()
            method.after_backward(iteration)
            optimizer.step()
            method.after_step(iteration)
        for name in masks_after:
            assert np.array_equal(masks_after[name], method.masks.masks[name])

    def test_sensitivity_selects_high_scores(self):
        """Weights with |g*w| above the global threshold survive."""
        model = make_model(seed=9)
        method = SNIPSNN(sparsity=0.5, calibration_batches=1, rng=np.random.default_rng(9))
        optimizer = SGD(model.parameters(), lr=0.05)
        method.bind(model, optimizer)
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((8, 24)).astype(np.float32))
        y = rng.integers(0, 4, 8)
        loss = cross_entropy(model(x), y)
        loss.backward()
        scores = {
            name: np.abs(p.grad * p.data)
            for name, p in method.masks.parameters.items()
        }
        method.after_backward(0)
        all_scores = np.concatenate([s.reshape(-1) for s in scores.values()])
        keep = max(1, int(round(0.5 * all_scores.size)))
        threshold = np.partition(all_scores, all_scores.size - keep)[all_scores.size - keep]
        for name, parameter in method.masks.parameters.items():
            mask = method.masks.masks[name]
            surviving = scores[name][mask > 0]
            if surviving.size:
                assert surviving.min() >= threshold - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SNIPSNN(sparsity=1.0)
        with pytest.raises(ValueError):
            SNIPSNN(sparsity=0.5, calibration_batches=0)


class TestRunnerIntegration:
    @pytest.mark.parametrize("method_name", ["gmp", "snip"])
    def test_run_via_experiment_runner(self, method_name):
        from repro.experiments import run_experiment, scaled_config

        config = scaled_config(
            "cifar10", "convnet", method_name, 0.8,
            epochs=2, train_samples=32, test_samples=16, timesteps=2, batch_size=16,
        )
        outcome = run_experiment(config)
        assert abs(outcome.final_sparsity - 0.8) < 0.05
