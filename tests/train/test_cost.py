"""Training-cost model (paper §IV-C / Fig. 5)."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import NDSNN, DenseMethod
from repro.train import (
    Trainer,
    epoch_costs,
    relative_training_cost,
    training_flops_estimate,
)


def fit_tiny(method, epochs=3):
    rng = np.random.default_rng(0)
    data = ArrayDataset(rng.standard_normal((32, 12)).astype(np.float32),
                        np.arange(32) % 3)
    model = SpikingMLP(in_features=12, num_classes=3, hidden=(16,), timesteps=2,
                       rng=np.random.default_rng(1))
    loader = DataLoader(data, batch_size=16, shuffle=True, rng=np.random.default_rng(2))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    return Trainer(model, method, optimizer, loader).fit(epochs)


class TestEpochCosts:
    def test_formula(self):
        # cost = R_s * density / R_d
        costs = epoch_costs([0.2, 0.2], [0.5, 0.25], [0.4, 0.4])
        assert np.allclose(costs, [0.25, 0.125])

    def test_dense_reference_cycled_for_longer_runs(self):
        costs = epoch_costs([0.1] * 4, [1.0] * 4, [0.1, 0.2])
        assert np.allclose(costs, [1.0, 0.5, 1.0, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            epoch_costs([0.1], [0.5, 0.5], [0.1])
        with pytest.raises(ValueError):
            epoch_costs([0.1], [0.5], [])
        with pytest.raises(ValueError):
            epoch_costs([0.1], [0.5], [0.0])


class TestRelativeCost:
    def test_dense_against_itself_is_one(self):
        rates = [0.3, 0.3, 0.3]
        breakdown = relative_training_cost(rates, [1.0] * 3, rates, method="dense")
        assert breakdown.per_epoch == [1.0, 1.0, 1.0]
        assert breakdown.total_relative_to_dense == 1.0
        assert breakdown.percent_of_dense == 100.0

    def test_sparse_cheaper_than_dense(self):
        dense_rates = [0.3] * 10
        sparse_rates = [0.3] * 10
        densities = [0.1] * 10
        breakdown = relative_training_cost(sparse_rates, densities, dense_rates, method="ndsnn")
        assert np.isclose(breakdown.total_relative_to_dense, 0.1)

    def test_lth_multi_round_costs_more_than_single(self):
        """LTH trains rounds x epochs, early rounds near-dense: expensive."""
        dense_rates = [0.3] * 10
        lth_rates = [0.3] * 30  # 3 rounds of 10 epochs
        lth_densities = [1.0] * 10 + [0.5] * 10 + [0.25] * 10
        lth = relative_training_cost(lth_rates, lth_densities, dense_rates, method="lth")
        ndsnn = relative_training_cost([0.3] * 10, [0.15] * 10, dense_rates, method="ndsnn")
        assert lth.total_relative_to_dense > 1.0
        assert ndsnn.total_relative_to_dense < lth.total_relative_to_dense

    def test_prices_a_trained_run_from_its_result(self):
        dense = fit_tiny(DenseMethod())
        sparse = fit_tiny(NDSNN(initial_sparsity=0.3, final_sparsity=0.7,
                                total_iterations=6, update_frequency=2,
                                rng=np.random.default_rng(3)))
        breakdown = relative_training_cost(
            sparse.spike_rates, sparse.densities, dense.spike_rates, method="ndsnn"
        )
        assert len(breakdown.per_epoch) == 3
        assert np.allclose(breakdown.per_epoch, [
            rate * density / dense_rate for rate, density, dense_rate
            in zip(sparse.spike_rates, sparse.densities, dense.spike_rates)
        ])
        assert 0.0 < breakdown.total_relative_to_dense
        assert dense.densities == [1.0, 1.0, 1.0]
        assert max(sparse.densities) < 1.0

    def test_lower_spike_rate_lowers_cost(self):
        dense_rates = [0.4] * 5
        quiet = relative_training_cost([0.1] * 5, [0.5] * 5, dense_rates)
        loud = relative_training_cost([0.4] * 5, [0.5] * 5, dense_rates)
        assert quiet.total_relative_to_dense < loud.total_relative_to_dense


class TestFlops:
    def test_proportional_to_connections(self):
        low = training_flops_estimate([100.0] * 3, timesteps=2, samples_per_epoch=10)
        high = training_flops_estimate([200.0] * 3, timesteps=2, samples_per_epoch=10)
        assert high == 2 * low

    def test_validation(self):
        with pytest.raises(ValueError):
            training_flops_estimate([1.0], timesteps=0, samples_per_epoch=1)
