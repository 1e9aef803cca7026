"""Checkpoint save/load including sparse masks and full training state."""

import numpy as np
import pytest

from repro.experiments import run_experiment, scaled_config
from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import NDSNN, DenseMethod
from repro.train import (
    CheckpointCallback,
    has_training_state,
    load_checkpoint,
    load_training_state,
    save_checkpoint,
    save_training_state,
)
from repro.train.hooks import TrainerCallback


def make_model(seed=0):
    return SpikingMLP(in_features=10, num_classes=3, hidden=(12,), timesteps=2,
                      rng=np.random.default_rng(seed))


class TestCheckpoint:
    def test_weights_roundtrip(self, tmp_path):
        model = make_model()
        original = model.state_dict()
        save_checkpoint(tmp_path / "ckpt", model, iteration=42, epoch=3)
        for parameter in model.parameters():
            parameter.data += 1.0
        metadata = load_checkpoint(tmp_path / "ckpt", model)
        assert metadata["iteration"] == 42
        assert metadata["epoch"] == 3
        for name, value in model.state_dict().items():
            assert np.allclose(value, original[name])

    def test_masks_roundtrip(self, tmp_path):
        model = make_model(seed=1)
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=100, update_frequency=10,
                       rng=np.random.default_rng(1))
        method.bind(model, SGD(model.parameters(), lr=0.1))
        original_masks = method.masks.copy_masks()
        save_checkpoint(tmp_path / "ckpt", model, method=method, iteration=10)

        model2 = make_model(seed=2)
        method2 = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                        total_iterations=100, update_frequency=10,
                        rng=np.random.default_rng(99))
        method2.bind(model2, SGD(model2.parameters(), lr=0.1))
        metadata = load_checkpoint(tmp_path / "ckpt", model2, method=method2)
        assert metadata["has_masks"]
        for name in original_masks:
            assert np.array_equal(method2.masks.masks[name], original_masks[name])

    def test_masks_require_bound_method(self, tmp_path):
        model = make_model(seed=3)
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=100, update_frequency=10,
                       rng=np.random.default_rng(3))
        method.bind(model, SGD(model.parameters(), lr=0.1))
        save_checkpoint(tmp_path / "ckpt", model, method=method)
        fresh = NDSNN(initial_sparsity=0.5, final_sparsity=0.9)
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "ckpt", make_model(seed=3), method=fresh)

    def test_dense_checkpoint_has_no_masks(self, tmp_path):
        model = make_model(seed=4)
        method = DenseMethod()
        method.bind(model, SGD(model.parameters(), lr=0.1))
        save_checkpoint(tmp_path / "ckpt", model, method=method)
        metadata = load_checkpoint(tmp_path / "ckpt", model)
        assert not metadata["has_masks"]

    def test_extra_metadata(self, tmp_path):
        model = make_model(seed=5)
        save_checkpoint(tmp_path / "ckpt", model, extra={"lr": 0.1, "note": "hello"})
        metadata = load_checkpoint(tmp_path / "ckpt", model)
        assert metadata["extra"]["note"] == "hello"


FAST = dict(
    epochs=3, train_samples=48, test_samples=16, timesteps=2,
    batch_size=16, update_frequency=2, initial_sparsity=0.5,
)


class _InterruptTraining(Exception):
    pass


class _StopAfter(TrainerCallback):
    """Abort a run after N epochs (the in-process stand-in for a kill)."""

    def __init__(self, epochs):
        self.epochs = epochs

    def on_epoch_end(self, trainer, epoch, stats):
        if epoch + 1 >= self.epochs:
            raise _InterruptTraining()


def _interrupted_then_resumed(config, checkpoint, stop_after=1):
    """Train with checkpointing, die after ``stop_after`` epochs, resume."""
    with pytest.raises(_InterruptTraining):
        run_experiment(
            config,
            checkpoint_path=checkpoint,
            extra_callbacks=[_StopAfter(stop_after)],
        )
    assert has_training_state(checkpoint)
    return run_experiment(config, checkpoint_path=checkpoint, resume=True)


class TestTrainingStateResume:
    """A resumed run must be bit-identical to an uninterrupted one."""

    @pytest.mark.parametrize("method", ["ndsnn", "set", "rigl", "gmp", "admm", "snip", "dense"])
    def test_resume_bit_identical(self, method, tmp_path):
        config = scaled_config("cifar10", "convnet", method, 0.9, **FAST)
        golden = run_experiment(config)
        resumed = _interrupted_then_resumed(config, tmp_path / "job")
        assert len(resumed.history) == len(golden.history) == config.epochs
        for want, got in zip(golden.history, resumed.history):
            assert want.as_dict() == got.as_dict()
        assert resumed.final_accuracy == golden.final_accuracy
        assert resumed.final_sparsity == golden.final_sparsity

    @pytest.mark.smoke
    def test_resume_from_second_epoch(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        golden = run_experiment(config)
        resumed = _interrupted_then_resumed(config, tmp_path / "job", stop_after=2)
        assert [s.as_dict() for s in resumed.history] == [
            s.as_dict() for s in golden.history
        ]

    def test_checkpoint_every_epoch_and_cleanup_of_tmp(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        run_experiment(config, checkpoint_path=tmp_path / "job")
        assert has_training_state(tmp_path / "job")
        # Atomic writes leave no temporaries behind.
        assert not list(tmp_path.glob("*.tmp*"))

    def test_completed_run_does_not_retrain_on_resume(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        first = run_experiment(config, checkpoint_path=tmp_path / "job")
        again = run_experiment(config, checkpoint_path=tmp_path / "job", resume=True)
        # All epochs were restored from the checkpoint, none re-trained.
        assert [s.as_dict() for s in again.history] == [
            s.as_dict() for s in first.history
        ]

    def test_metadata_shape(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "set", 0.9, **FAST)
        trainer_state = tmp_path / "job"
        run_experiment(config, checkpoint_path=trainer_state)
        from repro.utils import load_json

        metadata = load_json(trainer_state.with_suffix(".json"))
        assert metadata["epochs_completed"] == config.epochs
        assert metadata["iteration"] == 3 * config.epochs  # 48/16 batches
        assert metadata["loader_rng_state"]["bit_generator"] == "PCG64"
        assert len(metadata["history"]) == config.epochs


def point_calibration_world(monkeypatch, directory, cutoff):
    """Pin the dispatch calibration environment for one test phase.

    Points the shared write-once cache at ``directory`` (fresh), clears
    the per-process memoization, and replaces the timing measurement
    with a constant — so routing decisions are controlled, not timed.
    """
    import repro.sparse.dispatch as dispatch

    monkeypatch.setenv(dispatch.CALIBRATION_ENV, str(directory))
    dispatch.clear_process_cache()
    monkeypatch.setattr(
        dispatch,
        "measure_crossover",
        lambda rows, cols, **kwargs: {"cutoff": cutoff, "buckets": {}},
    )


class TestEncoderRngResume:
    """Poisson-encoded runs must resume bit-identically.

    The encoder draws from its own RNG stream every batch; without
    capturing it in the checkpoint, a resumed run would re-encode the
    remaining epochs with different spike trains.
    """

    def test_poisson_run_resumes_bit_identical(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9,
                               encoder="poisson", **FAST)
        golden = run_experiment(config)
        resumed = _interrupted_then_resumed(config, tmp_path / "job")
        assert [s.as_dict() for s in resumed.history] == [
            s.as_dict() for s in golden.history
        ]

    def test_encoder_rng_state_is_in_the_sidecar(self, tmp_path):
        from repro.utils import load_json

        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9,
                               encoder="poisson", **FAST)
        run_experiment(config, checkpoint_path=tmp_path / "job")
        metadata = load_json((tmp_path / "job").with_suffix(".json"))
        assert metadata["encoder_rng_state"]["bit_generator"] == "PCG64"

    def test_direct_encoder_has_no_rng_state(self, tmp_path):
        from repro.utils import load_json

        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        run_experiment(config, checkpoint_path=tmp_path / "job")
        metadata = load_json((tmp_path / "job").with_suffix(".json"))
        assert metadata["encoder_rng_state"] is None


class TestCalibrationResume:
    """Checkpointed dispatch decisions override fresh measurement.

    A resumed run may land on a different machine (or a machine in a
    different load state) whose fresh calibration would route layers
    differently — and dense vs CSR kernels are not bit-identical.  The
    checkpoint therefore persists the calibration table, and the
    restored table must win over anything measured at resume time.
    """

    def test_resume_restores_table_and_stays_bit_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.utils import load_json

        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        sidecar = (tmp_path / "job").with_suffix(".json")

        # World A: calibration says CSR wins everywhere.
        point_calibration_world(monkeypatch, tmp_path / "calib-a", 0.99)
        golden = run_experiment(config)
        with pytest.raises(_InterruptTraining):
            run_experiment(config, checkpoint_path=tmp_path / "job",
                           extra_callbacks=[_StopAfter(1)])
        saved = load_json(sidecar)["calibration"]
        assert saved and set(saved.values()) == {0.99}

        # World B: a fresh measurement would route everything dense.
        point_calibration_world(monkeypatch, tmp_path / "calib-b", 0.0)
        resumed = run_experiment(config, checkpoint_path=tmp_path / "job",
                                 resume=True)
        assert [s.as_dict() for s in resumed.history] == [
            s.as_dict() for s in golden.history
        ]
        # The checkpoint written after resume still carries world A's
        # table: the run never adopted world B's measurements.
        assert set(load_json(sidecar)["calibration"].values()) == {0.99}

        import repro.sparse.dispatch as dispatch

        dispatch.clear_process_cache()


class TestResumeWithAugmentation:
    def _fit(self, epochs, checkpoint=None, resume=False, fit_epochs=None):
        """Trainer over augmented loaders (transform RNGs in play)."""
        from repro.experiments.runner import (
            build_experiment_model,
            build_loaders,
            build_method,
        )
        from repro.experiments import scaled_config
        from repro.optim import CosineAnnealingLR
        from repro.train import Trainer

        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        train_loader, test_loader, train_set = build_loaders(config, augment=True)
        model = build_experiment_model(config, train_set)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        trainer = Trainer(
            model,
            build_method(config, 9),
            optimizer,
            train_loader,
            test_loader=test_loader,
            scheduler=CosineAnnealingLR(optimizer, t_max=epochs),
        )
        start_epoch = 0
        history = []
        if resume:
            metadata = load_training_state(checkpoint, trainer)
            start_epoch = metadata["epochs_completed"]
            from repro.train import EpochStats

            history = [EpochStats(**entry) for entry in metadata["history"]]
        if checkpoint is not None:
            trainer.add_callback(CheckpointCallback(checkpoint))
        return trainer.fit(fit_epochs if fit_epochs is not None else epochs,
                           start_epoch=start_epoch, initial_history=history)

    def test_transform_rng_streams_resume_bit_identical(self, tmp_path):
        golden = self._fit(epochs=3)
        self._fit(epochs=3, checkpoint=tmp_path / "aug", fit_epochs=1)
        resumed = self._fit(epochs=3, checkpoint=tmp_path / "aug", resume=True)
        assert [s.as_dict() for s in resumed.history] == [
            s.as_dict() for s in golden.history
        ]


class TestCheckpointIntegrity:
    def test_mismatched_pair_rejected(self, tmp_path):
        """Torn npz/json pairs are detected, not silently resumed."""
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        run_experiment(config, checkpoint_path=tmp_path / "job")
        from repro.utils import load_json, save_json

        metadata = load_json((tmp_path / "job").with_suffix(".json"))
        metadata["epochs_completed"] -= 1  # simulate a stale sidecar
        save_json((tmp_path / "job").with_suffix(".json"), metadata)

        from repro.experiments.runner import (
            build_experiment_model,
            build_loaders,
            build_method,
        )
        from repro.train import Trainer

        train_loader, test_loader, train_set = build_loaders(config)
        model = build_experiment_model(config, train_set)
        trainer = Trainer(
            model, build_method(config, 9), SGD(model.parameters(), lr=0.1),
            train_loader, test_loader=test_loader,
        )
        with pytest.raises(ValueError, match="pair mismatch"):
            load_training_state(tmp_path / "job", trainer)

    def test_corrupt_checkpoint_recomputes_instead_of_failing(self, tmp_path):
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        golden = run_experiment(config)
        run_experiment(config, checkpoint_path=tmp_path / "job")
        (tmp_path / "job.npz").write_bytes(b"not an npz archive")
        recovered = run_experiment(config, checkpoint_path=tmp_path / "job", resume=True)
        assert [s.as_dict() for s in recovered.history] == [
            s.as_dict() for s in golden.history
        ]


def _tear(path, key):
    """Stale sidecar: step one counter back, as a lost race would leave it."""
    from repro.utils import load_json, save_json

    metadata = load_json(path.with_suffix(".json"))
    metadata[key] -= 1
    save_json(path.with_suffix(".json"), metadata)


class TestPairCodec:
    """One writer and one reader under both checkpoint kinds."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A finished ``run_experiment`` job: its config and its pair."""
        config = scaled_config("cifar10", "convnet", "ndsnn", 0.9, **FAST)
        path = tmp_path_factory.mktemp("job") / "job"
        run_experiment(config, checkpoint_path=path)
        return config, path

    def test_npz_roundtrip(self, tmp_path):
        from repro.train.checkpoint import _read_pair, _write_pair

        state = {"w": np.random.default_rng(0).standard_normal((3, 3)).astype(np.float32)}
        _write_pair(tmp_path / "state", state, {})
        sections, metadata = _read_pair(tmp_path / "state")
        assert sections["weights"]["w"].dtype == np.float32
        assert np.array_equal(sections["weights"]["w"], state["w"])
        assert metadata == {}

    def test_stamp_is_deterministic(self, tmp_path):
        """Identical content stamps identically: racing writers agree."""
        model = make_model(seed=7)
        for name in ("a", "b"):
            save_checkpoint(tmp_path / name, model, iteration=3)
        with np.load(tmp_path / "a.npz") as a, np.load(tmp_path / "b.npz") as b:
            assert str(a["__stamp__"]) == str(b["__stamp__"])

    @pytest.mark.parametrize("reader", [
        "load_checkpoint", "load_training_state", "restore_manager", "registry",
    ])
    def test_every_reader_refuses_a_torn_pair(self, trained, tmp_path, reader):
        import shutil

        from repro.experiments.runner import (
            build_experiment_model,
            build_loaders,
            build_method,
        )
        from repro.train import Trainer

        config, job = trained
        path = tmp_path / "pair"
        model = build_experiment_model(config)
        if reader == "load_checkpoint":
            save_checkpoint(path, model, iteration=5)
            _tear(path, "iteration")
        else:
            for suffix in (".npz", ".json"):
                shutil.copy(job.with_suffix(suffix), path.with_suffix(suffix))
            _tear(path, "epochs_completed")

        with pytest.raises(ValueError, match="pair mismatch"):
            if reader == "load_checkpoint":
                load_checkpoint(path, model)
            elif reader == "load_training_state":
                train_loader, test_loader, train_set = build_loaders(config)
                trainer = Trainer(
                    model, build_method(config, 9), SGD(model.parameters(), lr=0.1),
                    train_loader, test_loader=test_loader,
                )
                load_training_state(path, trainer)
            elif reader == "restore_manager":
                from repro.train import restore_manager

                restore_manager(path, model)
            else:
                from repro.serve import ModelRegistry

                ModelRegistry().load_checkpoint("m", config, path).session("m")

    def test_failed_save_keeps_last_good_checkpoint(self, tmp_path, monkeypatch):
        from pathlib import Path

        model = make_model(seed=6)
        save_checkpoint(tmp_path / "ckpt", model, iteration=1)
        original = model.state_dict()

        def torn_savez(file, *args, **kwargs):
            if hasattr(file, "write"):
                file.write(b"partial npz")
            else:
                Path(file).write_bytes(b"partial npz")
            raise OSError("No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(np, "savez_compressed", torn_savez)
            for parameter in model.parameters():
                parameter.data += 1.0
            with pytest.raises(OSError):
                save_checkpoint(tmp_path / "ckpt", model, iteration=2)

        assert load_checkpoint(tmp_path / "ckpt", model)["iteration"] == 1
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, original[name])
        assert not list(tmp_path.glob("*.tmp-*"))

    @pytest.mark.parametrize("stamp", [None, 3])
    def test_pairs_written_before_the_digest_still_load(self, tmp_path, stamp):
        """Hand-written older layouts: the unstamped ``save_checkpoint``
        pair and the epoch-stamped training-state pair."""
        from repro.train import restore_manager
        from repro.utils import save_json

        model = make_model(seed=8)
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                       total_iterations=100, update_frequency=10,
                       rng=np.random.default_rng(8))
        method.bind(model, SGD(model.parameters(), lr=0.1))
        arrays = dict(model.state_dict())
        arrays.update({"__mask__." + n: m for n, m in method.masks.masks.items()})
        metadata = {"iteration": 7, "epoch": 1, "has_masks": True, "extra": {}}
        if stamp is not None:
            arrays["__epochs_completed__"] = np.asarray(stamp)
            metadata["epochs_completed"] = stamp
        path = tmp_path / "old"
        np.savez_compressed(path.with_suffix(".npz"), **arrays)
        save_json(path.with_suffix(".json"), metadata)

        twin = make_model(seed=9)
        twin_method = NDSNN(initial_sparsity=0.5, final_sparsity=0.9,
                            total_iterations=100, update_frequency=10,
                            rng=np.random.default_rng(9))
        twin_method.bind(twin, SGD(twin.parameters(), lr=0.1))
        assert load_checkpoint(path, twin, method=twin_method)["iteration"] == 7
        served = make_model(seed=10)
        manager = restore_manager(path, served, execution="dense")
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(twin.state_dict()[name], value)
            np.testing.assert_array_equal(served.state_dict()[name], value)
        for name, mask in method.masks.masks.items():
            np.testing.assert_array_equal(twin_method.masks.masks[name], mask)
            np.testing.assert_array_equal(manager.masks[name], mask)

        if stamp is not None:
            _tear(path, "epochs_completed")
            with pytest.raises(ValueError, match="pair mismatch"):
                restore_manager(path, make_model(seed=10))


class TestCheckpointCallback:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CheckpointCallback("x", every=0)

    def test_save_and_load_roundtrip_velocity(self, tmp_path):
        """Optimizer momentum survives the save/load cycle exactly."""
        config = scaled_config("cifar10", "convnet", "dense", 0.9, **FAST)
        from repro.experiments.runner import (
            build_experiment_model,
            build_loaders,
            build_method,
        )
        from repro.optim import CosineAnnealingLR
        from repro.train import Trainer

        def build():
            train_loader, test_loader, train_set = build_loaders(config)
            model = build_experiment_model(config, train_set)
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            trainer = Trainer(
                model, build_method(config, 10), optimizer, train_loader,
                test_loader=test_loader,
                scheduler=CosineAnnealingLR(optimizer, t_max=3),
            )
            return trainer, optimizer

        trainer, optimizer = build()
        trainer.fit(1)
        save_training_state(tmp_path / "state", trainer, epochs_completed=1)
        twin, twin_optimizer = build()
        load_training_state(tmp_path / "state", twin)
        for original, restored in zip(
            optimizer.state_arrays().items(), twin_optimizer.state_arrays().items()
        ):
            assert original[0] == restored[0]
            np.testing.assert_array_equal(original[1], restored[1])
        assert twin.iteration == trainer.iteration
        assert twin_optimizer.lr == optimizer.lr
