"""Experiment configs and runners (the bench code path)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    SCALED_NUM_CLASSES,
    build_loaders,
    build_method,
    iterations_per_epoch,
    run_experiment,
    run_sweep,
    scaled_config,
    sweep_configs,
)
from repro.sparse import ADMMPruner, DenseMethod, NDSNN, RigLSNN, SETSNN

FAST = dict(epochs=1, train_samples=32, test_samples=16, timesteps=2, batch_size=16)


class TestConfig:
    def test_scaled_config_defaults(self):
        config = scaled_config("cifar100", "convnet", "ndsnn", 0.95)
        assert config.num_classes == SCALED_NUM_CLASSES["cifar100"]
        assert config.sparsity == 0.95

    def test_scaled_overrides(self):
        config = scaled_config("cifar10", "convnet", "set", 0.9, epochs=7)
        assert config.epochs == 7

    def test_scaled_copy(self):
        config = ExperimentConfig()
        other = config.scaled(sparsity=0.99)
        assert other.sparsity == 0.99
        assert config.sparsity != 0.99 or config.sparsity == 0.9


class TestBuilders:
    def test_loaders_geometry(self):
        config = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)
        train_loader, test_loader, train_set = build_loaders(config)
        assert train_set.num_classes == 10
        images, labels = next(iter(train_loader))
        assert images.shape[0] == 16

    @pytest.mark.parametrize("name,cls", [
        ("dense", DenseMethod),
        ("ndsnn", NDSNN),
        ("set", SETSNN),
        ("rigl", RigLSNN),
        ("admm", ADMMPruner),
    ])
    def test_build_method(self, name, cls):
        config = scaled_config("cifar10", "convnet", name, 0.9, **FAST)
        assert isinstance(build_method(config, 100), cls)

    def test_build_method_rejects_lth(self):
        config = scaled_config("cifar10", "convnet", "lth", 0.9, **FAST)
        with pytest.raises(ValueError):
            build_method(config, 100)

    def test_iterations_per_epoch(self):
        config = scaled_config("cifar10", "convnet", "dense", 0.9,
                               train_samples=33, batch_size=16)
        assert iterations_per_epoch(config) == 3


class TestRunners:
    def test_run_experiment_dense(self):
        config = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)
        outcome = run_experiment(config)
        assert 0.0 <= outcome.final_accuracy <= 1.0
        assert outcome.final_sparsity == 0.0
        assert len(outcome.history) == 1

    def test_run_experiment_ndsnn_reaches_sparsity(self):
        config = scaled_config(
            "cifar10", "convnet", "ndsnn", 0.9,
            epochs=3, train_samples=64, test_samples=16, timesteps=2,
            batch_size=16, update_frequency=2, initial_sparsity=0.5,
        )
        outcome = run_experiment(config)
        assert abs(outcome.final_sparsity - 0.9) < 0.05

    def test_run_lth_concatenates_history(self):
        config = scaled_config("cifar10", "convnet", "lth", 0.9, **FAST, lth_rounds=2)
        outcome = run_experiment(config)
        assert len(outcome.history) == 2
        assert abs(outcome.final_sparsity - 0.9) < 0.05

    def test_verbose_prints_one_line_per_epoch_of_every_round(self, capsys):
        config = scaled_config("cifar10", "convnet", "lth", 0.9,
                               **{**FAST, "epochs": 2}, lth_rounds=2)
        outcome = run_experiment(config, verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["epoch", "0"], ["epoch", "1"]] * 2
        for line, stats in zip(lines, outcome.history):
            assert f"loss {stats.train_loss:.4f}" in line
        run_experiment(config)
        assert capsys.readouterr().out == ""

    def test_run_lth_ignores_checkpoint(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "lth", 0.9, **FAST, lth_rounds=2)
        outcome = run_experiment(config, checkpoint_path=tmp_path / "ckpt")
        assert len(outcome.history) == 2
        assert not list(tmp_path.iterdir())

    def test_outcome_traces(self):
        config = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)
        outcome = run_experiment(config)
        assert len(outcome.spike_rates) == len(outcome.densities) == len(outcome.history)
        assert all(0 <= r <= 1 for r in outcome.spike_rates)

    def test_determinism_same_seed(self):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST, seed=5)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.final_accuracy == second.final_accuracy

    def test_csr_execution_reaches_same_sparsity(self):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST,
                               initial_sparsity=0.5, update_frequency=2)
        dense = run_experiment(config)
        auto = run_experiment(config.scaled(execution="auto"))
        assert auto.final_sparsity == pytest.approx(dense.final_sparsity, abs=1e-6)


class TestLoaderRngIsolation:
    def test_augmentation_does_not_perturb_shuffle_stream(self):
        config = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)

        def label_epochs(augment, epochs=2):
            train_loader, _, _ = build_loaders(config, augment=augment)
            return [
                np.concatenate([labels for _, labels in train_loader])
                for _ in range(epochs)
            ]

        plain = label_epochs(augment=False)
        augmented = label_epochs(augment=True)
        # The shuffle order must be identical in *every* epoch even
        # though augmentation consumes randomness between batches.
        for epoch_plain, epoch_augmented in zip(plain, augmented):
            np.testing.assert_array_equal(epoch_plain, epoch_augmented)

    def test_different_seeds_shuffle_differently(self):
        config = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)
        loader_a, _, _ = build_loaders(config)
        loader_b, _, _ = build_loaders(config.scaled(seed=99))
        labels_a = np.concatenate([labels for _, labels in loader_a])
        labels_b = np.concatenate([labels for _, labels in loader_b])
        assert not np.array_equal(labels_a, labels_b)


class TestSweep:
    def test_sweep_configs_cross_grid(self):
        base = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        configs = sweep_configs(base, ["ndsnn", "set"], sparsities=[0.8, 0.9])
        assert len(configs) == 4
        assert {(c.method, c.sparsity) for c in configs} == {
            ("ndsnn", 0.8), ("ndsnn", 0.9), ("set", 0.8), ("set", 0.9),
        }

    @pytest.mark.smoke
    def test_sequential_sweep_preserves_order(self):
        base = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)
        configs = sweep_configs(base, ["dense", "ndsnn"])
        outcomes = run_sweep(configs, jobs=1)
        assert [o.config.method for o in outcomes] == ["dense", "ndsnn"]
        assert outcomes[0].final_sparsity == 0.0
        assert outcomes[1].final_sparsity > 0.5

    def test_parallel_sweep_matches_sequential(self):
        base = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        configs = sweep_configs(base, ["ndsnn", "set"])
        sequential = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=2)
        for seq, par in zip(sequential, parallel):
            assert seq.final_accuracy == par.final_accuracy
            assert seq.final_sparsity == par.final_sparsity
