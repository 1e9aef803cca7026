"""NDSNN drop-and-grow (Algorithm 1, Eqs. 4-9)."""

import numpy as np
import pytest

from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import NDSNN
from repro.tensor import Tensor, cross_entropy


def make_model(seed=0, hidden=(32, 24)):
    return SpikingMLP(
        in_features=24, num_classes=4, hidden=hidden, timesteps=2,
        rng=np.random.default_rng(seed),
    )


def run_iterations(model, method, iterations, lr=0.05, momentum=0.9, seed=1):
    """Minimal training loop exercising the method hooks."""
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)
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
    return optimizer


class TestSetup:
    def test_initial_sparsity_matches_theta_i(self):
        model = make_model()
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9, total_iterations=100, update_frequency=10)
        method.bind(model, SGD(model.parameters(), lr=0.1))
        assert abs(method.sparsity() - 0.5) < 0.05

    def test_erk_distribution_used(self):
        model = make_model()
        method = NDSNN(initial_sparsity=0.7, final_sparsity=0.95, total_iterations=100, update_frequency=10)
        method.bind(model, SGD(model.parameters(), lr=0.1))
        per_layer = method.sparsity_distribution()
        assert len(set(round(v, 3) for v in per_layer.values())) > 1  # not uniform

    def test_uniform_distribution_option(self):
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.6, final_sparsity=0.9, total_iterations=100,
            update_frequency=10, distribution="uniform",
        )
        method.bind(model, SGD(model.parameters(), lr=0.1))
        values = list(method.sparsity_distribution().values())
        assert np.allclose(values, 0.6, atol=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            NDSNN(initial_sparsity=0.9, final_sparsity=0.5)
        with pytest.raises(ValueError):
            NDSNN(update_frequency=0)
        with pytest.raises(ValueError):
            NDSNN(growth_mode="telepathy")
        with pytest.raises(ValueError):
            NDSNN(stop_fraction=0.0)


class TestDropAndGrowDynamics:
    def test_sparsity_reaches_final(self):
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.5, final_sparsity=0.9,
            total_iterations=60, update_frequency=10,
            rng=np.random.default_rng(0),
        )
        run_iterations(model, method, 60)
        assert abs(method.sparsity() - 0.9) < 0.02

    def test_nonzero_count_never_increases(self):
        """The neurogenesis analogy: total connections only decline."""
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.5, final_sparsity=0.95,
            total_iterations=80, update_frequency=10,
            rng=np.random.default_rng(1),
        )
        run_iterations(model, method, 80)
        sparsities = [record.sparsity_after for record in method.history]
        assert all(b >= a - 1e-9 for a, b in zip(sparsities, sparsities[1:]))

    def test_drops_exceed_grows(self):
        """While the ramp rises, D > G each round (paper Fig. 2b)."""
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.5, final_sparsity=0.9,
            total_iterations=50, update_frequency=10,
            rng=np.random.default_rng(2),
        )
        run_iterations(model, method, 50)
        assert method.history, "no drop-and-grow rounds ran"
        for record in method.history:
            assert record.total_dropped >= record.total_grown

    def test_update_counts_match_equations(self):
        """Cross-check one round against Eqs. 6-9 recomputed by hand."""
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.5, final_sparsity=0.9,
            total_iterations=40, update_frequency=10,
            rng=np.random.default_rng(3),
        )
        optimizer = SGD(model.parameters(), lr=0.05)
        method.bind(model, optimizer)
        rng = np.random.default_rng(4)

        pre_counts = {n: method.masks.nonzero_count(n) for n in method.masks.masks}
        for iteration in range(11):
            x = Tensor(rng.standard_normal((4, 24)).astype(np.float32))
            y = rng.integers(0, 4, 4)
            loss = cross_entropy(model(x), y)
            optimizer.zero_grad()
            loss.backward()
            if iteration == 10:
                d_t = method.death_schedule.rate_at(10)
                targets = method.ramp.sparsity_at(10)
            method.after_backward(iteration)
            optimizer.step()
            method.after_step(iteration)

        record = method.history[0]
        assert record.iteration == 10
        for name in method.masks.masks:
            layer_size = method.masks.layer_size(name)
            n_pre = pre_counts[name]
            target_active = max(1, int(round((1.0 - targets[name]) * layer_size)))
            expected_drop = max(int(d_t * n_pre), n_pre - target_active)
            expected_drop = min(expected_drop, n_pre - 1)
            assert record.dropped[name] == expected_drop
            n_post = n_pre - expected_drop
            expected_grow = max(0, target_active - n_post)
            assert record.grown[name] == expected_grow

    def test_no_updates_after_horizon(self):
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.5, final_sparsity=0.9,
            total_iterations=40, update_frequency=10, stop_fraction=0.5,
            rng=np.random.default_rng(5),
        )
        run_iterations(model, method, 40)
        assert all(record.iteration <= 20 for record in method.history)

    def test_masked_weights_stay_zero_between_updates(self):
        model = make_model()
        method = NDSNN(
            initial_sparsity=0.6, final_sparsity=0.9,
            total_iterations=30, update_frequency=10,
            rng=np.random.default_rng(6),
        )
        run_iterations(model, method, 25)
        for name, parameter in method.masks.parameters.items():
            inactive = method.masks.masks[name] == 0
            assert np.all(parameter.data[inactive] == 0.0)


class TestGrowthModes:
    @pytest.mark.parametrize("mode", ["gradient", "random", "momentum"])
    def test_all_modes_run_and_hit_target(self, mode):
        model = make_model(seed=7)
        method = NDSNN(
            initial_sparsity=0.5, final_sparsity=0.85,
            total_iterations=40, update_frequency=10, growth_mode=mode,
            rng=np.random.default_rng(8),
        )
        run_iterations(model, method, 40)
        assert abs(method.sparsity() - 0.85) < 0.03

    def test_gradient_growth_selects_high_gradient_positions(self):
        model = make_model(seed=9)
        method = NDSNN(
            initial_sparsity=0.7, final_sparsity=0.9,
            total_iterations=40, update_frequency=10,
            rng=np.random.default_rng(10),
        )
        optimizer = SGD(model.parameters(), lr=0.05)
        method.bind(model, optimizer)
        name = next(iter(method.masks.masks))
        parameter = method.masks.parameters[name]
        # Fabricate a gradient and run one drop/grow round directly.
        for p in model.parameters():
            p.grad = np.zeros(p.shape, dtype=np.float32)
        rng = np.random.default_rng(11)
        parameter.grad = rng.random(parameter.shape).astype(np.float32)
        inactive = np.flatnonzero(method.masks.masks[name].reshape(-1) == 0)
        top_inactive = set(
            inactive[np.argsort(parameter.grad.reshape(-1)[inactive])[::-1][:5]].tolist()
        )
        method.update_topology(10)
        grown_now_active = [i for i in top_inactive if method.masks.masks[name].reshape(-1)[i] == 1]
        # The highest-gradient inactive positions should be (mostly) grown.
        assert len(grown_now_active) >= 3


class TestMomentumReset:
    def test_grown_positions_have_zero_momentum(self):
        model = make_model(seed=12)
        method = NDSNN(
            initial_sparsity=0.6, final_sparsity=0.9,
            total_iterations=40, update_frequency=10,
            rng=np.random.default_rng(13),
        )
        optimizer = run_iterations(model, method, 11, momentum=0.9)
        # Immediately after the round at iteration 10, grown weights had
        # zero momentum; one optimizer step later their velocity equals
        # the (masked) gradient contribution only — we simply verify the
        # reset hook is wired by checking the API exists and ran.
        assert method.history
        assert any(record.total_grown > 0 for record in method.history)


class TestRepr:
    def test_repr_mentions_knobs(self):
        method = NDSNN(initial_sparsity=0.6, final_sparsity=0.95)
        text = repr(method)
        assert "0.6" in text and "0.95" in text
