"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np
import pytest

from repro.data import DataLoader, make_dataset, standard_train_transform
from repro.optim import SGD, CosineAnnealingLR
from repro.snn import spike_rate
from repro.snn.models import build_model
from repro.sparse import NDSNN, CSRPattern, DenseMethod
from repro.tensor import Tensor
from repro.train import (
    Trainer,
    load_checkpoint,
    relative_training_cost,
    save_checkpoint,
    training_footprint_bits,
)


def build_pipeline(method, seed=0, epochs=4, model_name="convnet"):
    train = make_dataset("cifar10", train=True, num_samples=96, image_size=8, seed=seed)
    test = make_dataset("cifar10", train=False, num_samples=48, image_size=8, seed=seed)
    rng = np.random.default_rng(seed)
    train_loader = DataLoader(train, batch_size=16, shuffle=True, rng=rng)
    test_loader = DataLoader(test, batch_size=16, shuffle=False)
    model = build_model(
        model_name, num_classes=10, image_size=8, timesteps=2,
        rng=np.random.default_rng(seed + 1),
        **({"channels": (8, 12)} if model_name == "convnet" else {"width_mult": 0.125}),
    )
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    scheduler = CosineAnnealingLR(optimizer, t_max=epochs)
    trainer = Trainer(model, method, optimizer, train_loader,
                      test_loader=test_loader, scheduler=scheduler)
    return trainer, model


class TestFullPipeline:
    def test_ndsnn_full_cycle(self):
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=24, update_frequency=6,
                       rng=np.random.default_rng(0))
        trainer, model = build_pipeline(method, epochs=4)
        result = trainer.fit(4)
        # Sparsity ramped, spikes tracked, model learned something.
        assert abs(method.sparsity() - 0.9) < 0.03
        assert all(rate > 0 for rate in result.spike_rates)
        assert result.history[-1].train_loss < result.history[0].train_loss + 0.5

    def test_cost_model_on_real_runs(self):
        dense_trainer, _ = build_pipeline(DenseMethod(), seed=1, epochs=3)
        dense_result = dense_trainer.fit(3)
        method = NDSNN(initial_sparsity=0.6, final_sparsity=0.95,
                       total_iterations=18, update_frequency=6,
                       rng=np.random.default_rng(1))
        sparse_trainer, _ = build_pipeline(method, seed=1, epochs=3)
        sparse_result = sparse_trainer.fit(3)
        cost = relative_training_cost(
            sparse_result.spike_rates, sparse_result.densities,
            dense_result.spike_rates, method="ndsnn",
        )
        assert 0.0 < cost.total_relative_to_dense < 1.0

    def test_footprint_tracks_training_sparsity(self):
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=24, update_frequency=6,
                       rng=np.random.default_rng(2))
        trainer, model = build_pipeline(method, seed=2, epochs=4)
        result = trainer.fit(4)
        total_weights = method.masks.total_weights
        first = training_footprint_bits(total_weights, result.sparsities[0], 2)
        last = training_footprint_bits(total_weights, result.sparsities[-1], 2)
        assert last < first

    def test_csr_of_trained_sparse_model(self):
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=12, update_frequency=6,
                       rng=np.random.default_rng(3))
        trainer, model = build_pipeline(method, seed=3, epochs=2)
        trainer.fit(2)
        for name, parameter in method.masks.parameters.items():
            pattern = CSRPattern.from_mask(parameter.data != 0)
            restored = np.zeros(parameter.size, dtype=np.float32)
            restored[pattern.flat_index] = pattern.gather(parameter.data)
            assert np.array_equal(restored.reshape(parameter.shape), parameter.data)
            assert abs((1.0 - pattern.density) - method.masks.layer_sparsity(name)) < 1e-6

    def test_checkpoint_resume_preserves_behaviour(self, tmp_path):
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=24, update_frequency=6,
                       rng=np.random.default_rng(4))
        trainer, model = build_pipeline(method, seed=4, epochs=2)
        trainer.fit(2)
        save_checkpoint(tmp_path / "ckpt", model, method=method, iteration=trainer.iteration)

        # Fresh model/method; restore; predictions must match exactly.
        method2 = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                        total_iterations=24, update_frequency=6,
                        rng=np.random.default_rng(99))
        trainer2, model2 = build_pipeline(method2, seed=4, epochs=2)
        load_checkpoint(tmp_path / "ckpt", model2, method=method2)
        x = Tensor(np.random.default_rng(5).standard_normal((4, 3, 8, 8)).astype(np.float32))
        model.eval()
        model2.eval()
        from repro.tensor import no_grad
        with no_grad():
            assert np.allclose(model(x).data, model2(x).data, atol=1e-6)

    def test_augmentation_in_pipeline(self):
        train = make_dataset("cifar10", train=True, num_samples=64, image_size=8, seed=6)
        rng = np.random.default_rng(6)
        loader = DataLoader(
            train, batch_size=16, shuffle=True,
            transform=standard_train_transform(padding=1, rng=rng), rng=rng,
        )
        method = DenseMethod()
        model = build_model("convnet", num_classes=10, image_size=8, timesteps=2,
                            channels=(8,), rng=np.random.default_rng(7))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        result = Trainer(model, method, optimizer, loader).fit(2)
        assert len(result.history) == 2

    def test_spike_rate_changes_with_input_scale(self):
        model = build_model("convnet", num_classes=10, image_size=8, timesteps=2,
                            channels=(8,), rng=np.random.default_rng(8))
        small = Tensor(np.random.default_rng(9).standard_normal((4, 3, 8, 8)).astype(np.float32) * 0.1)
        big = Tensor(np.random.default_rng(9).standard_normal((4, 3, 8, 8)).astype(np.float32) * 5.0)
        from repro.snn import reset_spike_stats
        model(small)
        low = spike_rate(model)
        reset_spike_stats(model)
        model(big)
        high = spike_rate(model)
        assert high > low
