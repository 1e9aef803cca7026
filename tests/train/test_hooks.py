"""Trainer callback pipeline: firing order, mask-update events, and the
cost/fault callbacks that ride it."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import DenseMethod, NDSNN
from repro.train import (
    CostAccountingCallback,
    FaultInjectionCallback,
    Trainer,
    TrainerCallback,
    inject_weight_noise,
)


def tiny_task(n=32, features=12, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((n, features)).astype(np.float32)
    labels = np.arange(n) % classes
    return ArrayDataset(images, labels)


def build_trainer(method, callbacks=None, seed=0):
    train_loader = DataLoader(tiny_task(seed=seed), batch_size=16, shuffle=True,
                              rng=np.random.default_rng(1))
    test_loader = DataLoader(tiny_task(seed=seed + 5), batch_size=16, shuffle=False)
    model = SpikingMLP(in_features=12, num_classes=3, hidden=(16,), timesteps=2,
                       rng=np.random.default_rng(seed))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    return Trainer(model, method, optimizer, train_loader, test_loader=test_loader,
                   callbacks=callbacks)


class RecordingCallback(TrainerCallback):
    def __init__(self):
        self.events = []
        self.records = []

    def on_train_begin(self, trainer, epochs):
        self.events.append(("train_begin", epochs))

    def on_epoch_start(self, trainer, epoch):
        self.events.append(("epoch_start", epoch))

    def after_backward(self, trainer, iteration):
        self.events.append(("after_backward", iteration))

    def on_step_end(self, trainer, iteration):
        self.events.append(("step_end", iteration))

    def on_mask_update(self, trainer, iteration, record):
        self.events.append(("mask_update", iteration))
        self.records.append(record)

    def on_epoch_end(self, trainer, epoch, stats):
        self.events.append(("epoch_end", epoch))

    def on_train_end(self, trainer, result):
        self.events.append(("train_end", len(result.history)))


@pytest.mark.smoke
class TestCallbackPipeline:
    def test_hooks_fire_in_order(self):
        recorder = RecordingCallback()
        trainer = build_trainer(DenseMethod(), callbacks=[recorder])
        trainer.fit(2)
        kinds = [kind for kind, _ in recorder.events]
        assert kinds[0] == "train_begin"
        assert kinds[-1] == "train_end"
        assert kinds.count("epoch_start") == kinds.count("epoch_end") == 2
        # 32 samples / batch 16 = 2 iterations per epoch, 2 epochs.
        assert kinds.count("after_backward") == kinds.count("step_end") == 4
        first_epoch = kinds.index("epoch_start")
        assert kinds.index("after_backward") > first_epoch

    def test_mask_update_events_reach_callbacks(self):
        recorder, second = RecordingCallback(), RecordingCallback()
        method = NDSNN(initial_sparsity=0.3, final_sparsity=0.7,
                       total_iterations=8, update_frequency=2,
                       rng=np.random.default_rng(2))
        trainer = build_trainer(method, callbacks=[recorder, second])
        trainer.fit(4)
        updates = [event for event in recorder.events if event[0] == "mask_update"]
        assert len(updates) == len(method.history) > 0
        assert len(second.records) == len(method.history)
        assert second.records[0].iteration == updates[0][1]

    def test_add_callback_is_chainable(self):
        recorder = RecordingCallback()
        trainer = build_trainer(DenseMethod())
        assert trainer.add_callback(recorder) is trainer
        trainer.fit(1)
        assert recorder.events

    def test_verbose_prints_epoch_lines(self, capsys):
        trainer = build_trainer(DenseMethod())
        trainer.fit(2, verbose=True)
        out = capsys.readouterr().out
        assert out.count("epoch") == 2
        assert "sparsity" in out


class TestCostAccountingCallback:
    def test_tracks_epoch_terms_and_prices_run(self):
        cost = CostAccountingCallback()
        method = NDSNN(initial_sparsity=0.3, final_sparsity=0.7,
                       total_iterations=8, update_frequency=2,
                       rng=np.random.default_rng(3))
        trainer = build_trainer(method, callbacks=[cost])
        result = trainer.fit(3)
        assert cost.spike_rates == result.spike_rates
        assert cost.densities == result.densities
        assert cost.mask_updates == len(method.history)
        assert cost.method_name == "ndsnn"
        breakdown = cost.breakdown(dense_spike_rates=[0.5] * 3)
        assert len(breakdown.per_epoch) == 3
        assert breakdown.total_relative_to_dense > 0.0

    def test_requires_dense_reference(self):
        cost = CostAccountingCallback()
        with pytest.raises(ValueError):
            cost.breakdown()


class TestFaultInjectionCallback:
    def test_injects_on_schedule(self):
        faults = FaultInjectionCallback(
            lambda model: inject_weight_noise(model, 0.05, rng=np.random.default_rng(4)),
            every=2,
        )
        trainer = build_trainer(DenseMethod(), callbacks=[faults])
        trainer.fit(4)
        assert faults.injections == 2  # epochs 0 and 2

    def test_transient_faults_are_restored(self):
        state = {}

        def snapshotting_injector(model):
            snapshot = inject_weight_noise(model, 0.5, rng=np.random.default_rng(5))
            state["pristine"] = snapshot
            return snapshot

        faults = FaultInjectionCallback(snapshotting_injector, every=1, transient=True)

        class CheckRestore(TrainerCallback):
            def on_epoch_end(self, trainer, epoch, stats):
                pass

        trainer = build_trainer(DenseMethod(), callbacks=[faults, CheckRestore()])
        model = trainer.model
        trainer.fit(1)
        # After the (transient) epoch the pristine weights are back.
        for name, parameter in model.named_parameters():
            if name in state["pristine"]:
                np.testing.assert_array_equal(parameter.data, state["pristine"][name])

    def test_masked_positions_stay_dead_under_faults(self):
        method = NDSNN(initial_sparsity=0.5, final_sparsity=0.8,
                       total_iterations=8, update_frequency=2,
                       rng=np.random.default_rng(6))
        faults = FaultInjectionCallback(
            lambda model: inject_weight_noise(model, 0.2, rng=np.random.default_rng(7)),
            every=1,
        )
        trainer = build_trainer(method, callbacks=[faults])
        trainer.fit(3)
        for name, parameter in method.masks.parameters.items():
            inactive = method.masks.masks[name] == 0
            assert np.all(parameter.data[inactive] == 0.0)

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            FaultInjectionCallback(lambda model: {}, every=0)
