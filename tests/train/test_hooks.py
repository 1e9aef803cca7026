"""Trainer callbacks: the trainer calls its method's hooks, then the
callbacks observe, in registration order."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.optim import SGD
from repro.snn.models import SpikingMLP
from repro.sparse import (
    ADMMPruner,
    DenseMethod,
    GMPSNN,
    NDSNN,
    RigLSNN,
    SETSNN,
    SNIPSNN,
    StructuredFilterPruning,
)
from repro.train import CheckpointCallback, ConsoleLogger, Trainer, TrainerCallback


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

    def on_epoch_start(self, trainer, epoch):
        self.events.append(("epoch_start", epoch))

    def on_step_end(self, trainer, iteration):
        self.events.append(("step_end", iteration))

    def on_epoch_end(self, trainer, epoch, stats):
        self.events.append(("epoch_end", epoch))


class RecordingNDSNN(NDSNN):
    """NDSNN that logs its trainer-driven hooks into a shared event list."""

    def __init__(self, events, **kwargs):
        super().__init__(**kwargs)
        self.events = events

    def on_epoch_begin(self, epoch):
        self.events.append(("method.on_epoch_begin", epoch))

    def after_backward(self, iteration):
        self.events.append(("method.after_backward", iteration))
        super().after_backward(iteration)

    def after_step(self, iteration):
        self.events.append(("method.after_step", iteration))
        super().after_step(iteration)

    def on_epoch_end(self, epoch):
        self.events.append(("method.on_epoch_end", epoch))


def recording_method(events):
    return RecordingNDSNN(events, initial_sparsity=0.3, final_sparsity=0.7,
                          total_iterations=8, update_frequency=2,
                          rng=np.random.default_rng(2))


@pytest.mark.smoke
class TestCallbackPipeline:
    def test_hooks_fire_in_order(self):
        recorder = RecordingCallback()
        trainer = build_trainer(DenseMethod(), callbacks=[recorder])
        trainer.fit(2)
        # 32 samples / batch 16 = 2 iterations per epoch, 2 epochs.
        assert recorder.events == [
            ("epoch_start", 0), ("step_end", 0), ("step_end", 1), ("epoch_end", 0),
            ("epoch_start", 1), ("step_end", 2), ("step_end", 3), ("epoch_end", 1),
        ]

    def test_method_runs_before_callbacks_at_every_point(self):
        recorder = RecordingCallback()
        method = recording_method(recorder.events)
        trainer = build_trainer(method, callbacks=[recorder])
        trainer.fit(2)
        assert recorder.events[:6] == [
            ("method.on_epoch_begin", 0), ("epoch_start", 0),
            ("method.after_backward", 0), ("method.after_step", 0), ("step_end", 0),
            ("method.after_backward", 1),
        ]
        assert recorder.events[-3:] == [
            ("step_end", 3), ("method.on_epoch_end", 1), ("epoch_end", 1),
        ]
        assert len(method.history) > 0  # the method's own rounds ran

    def test_hooks_are_looked_up_on_the_instance_at_call_time(self):
        # Instrumentation replaces a method's hooks on the instance after
        # the trainer is built; the trainer must call the replacements.
        calls = []
        method = NDSNN(initial_sparsity=0.3, final_sparsity=0.7,
                       total_iterations=8, update_frequency=2,
                       rng=np.random.default_rng(2))
        trainer = build_trainer(method)
        for hook in ("after_backward", "after_step", "update_topology"):
            original = getattr(method, hook)

            def traced(*args, _hook=hook, _original=original):
                calls.append(_hook)
                return _original(*args)

            setattr(method, hook, traced)
        trainer.fit(2)
        assert calls.count("after_backward") == calls.count("after_step") == 4
        assert calls.count("update_topology") == len(method.history) > 0

    def test_checkpoint_saves_after_the_method_epoch_end(self, tmp_path):
        events = []

        class Checkpoint(CheckpointCallback):
            def on_epoch_end(self, trainer, epoch, stats):
                events.append(("checkpoint", epoch))
                super().on_epoch_end(trainer, epoch, stats)

        method = recording_method(events)
        trainer = build_trainer(method, callbacks=[Checkpoint(tmp_path / "ckpt")])
        trainer.fit(1)
        assert events[-2:] == [("method.on_epoch_end", 0), ("checkpoint", 0)]

    def test_add_callback_is_chainable(self):
        recorder = RecordingCallback()
        trainer = build_trainer(DenseMethod())
        assert trainer.add_callback(recorder) is trainer
        trainer.fit(1)
        assert recorder.events

    def test_console_logger_prints_epoch_lines(self, capsys):
        trainer = build_trainer(DenseMethod(), callbacks=[ConsoleLogger()])
        trainer.fit(2)
        out = capsys.readouterr().out
        assert out.count("epoch") == 2
        assert "sparsity" in out


#: Every sparse method the trainer drives, sized for ``build_trainer``'s
#: 2 iterations per epoch and a 4-epoch fit (8 iterations).
METHOD_FACTORIES = {
    "dense": lambda rng: DenseMethod(),
    "ndsnn": lambda rng: NDSNN(initial_sparsity=0.3, final_sparsity=0.7,
                               total_iterations=8, update_frequency=2, rng=rng),
    "set": lambda rng: SETSNN(sparsity=0.7, total_iterations=8,
                              update_frequency=2, rng=rng),
    "rigl": lambda rng: RigLSNN(sparsity=0.7, total_iterations=8,
                                update_frequency=2, rng=rng),
    "gmp": lambda rng: GMPSNN(final_sparsity=0.8, total_iterations=8,
                              update_frequency=2, rng=rng),
    "structured": lambda rng: StructuredFilterPruning(
        final_sparsity=0.5, total_iterations=8, update_frequency=2, rng=rng),
    "snip": lambda rng: SNIPSNN(sparsity=0.7, rng=rng),
    "admm": lambda rng: ADMMPruner(sparsity=0.7, total_iterations=8,
                                   admm_fraction=0.5, update_frequency=2, rng=rng),
}

DROP_GROW_METHODS = ["ndsnn", "set", "rigl", "gmp", "structured"]


def trace_on_instance(method, hook, calls, trainer):
    """Replace ``method.<hook>`` on the instance with a wrapper that logs
    ``(hook, trainer.iteration)`` before calling the original."""
    original = getattr(method, hook)

    def traced(*args):
        calls.append((hook, trainer.iteration))
        return original(*args)

    setattr(method, hook, traced)


class TestEveryMethod:
    """The trainer drives each method's hooks itself, in one order."""

    @pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
    def test_method_hooks_run_before_callbacks(self, name):
        recorder = RecordingCallback()
        method = METHOD_FACTORIES[name](np.random.default_rng(2))
        trainer = build_trainer(method, callbacks=[recorder])
        for hook in ("on_epoch_begin", "after_backward", "after_step", "on_epoch_end"):
            original = getattr(method, hook)

            def traced(value, _hook=hook, _original=original):
                recorder.events.append((f"method.{_hook}", value))
                return _original(value)

            setattr(method, hook, traced)
        trainer.fit(2)
        expected = []
        for epoch, steps in ((0, (0, 1)), (1, (2, 3))):
            expected += [("method.on_epoch_begin", epoch), ("epoch_start", epoch)]
            for step in steps:
                expected += [("method.after_backward", step),
                             ("method.after_step", step), ("step_end", step)]
            expected += [("method.on_epoch_end", epoch), ("epoch_end", epoch)]
        assert recorder.events == expected

    @pytest.mark.parametrize("name", DROP_GROW_METHODS)
    def test_every_round_lands_in_history(self, name):
        calls = []
        method = METHOD_FACTORIES[name](np.random.default_rng(3))
        trainer = build_trainer(method)
        trace_on_instance(method, "update_topology", calls, trainer)
        trainer.fit(4)
        rounds = [iteration for _, iteration in calls]
        assert rounds  # the schedule asks for rounds inside 8 iterations
        assert [record.iteration for record in method.history] == rounds
        assert method.history[-1].sparsity_after == pytest.approx(method.sparsity())

    @pytest.mark.parametrize("name, hook, at", [
        ("snip", "_prune_by_sensitivity", 0),
        ("admm", "_hard_prune", 4),
    ])
    def test_one_shot_pruning_runs_once(self, name, hook, at):
        calls = []
        method = METHOD_FACTORIES[name](np.random.default_rng(4))
        trainer = build_trainer(method)
        trace_on_instance(method, hook, calls, trainer)
        trainer.fit(4)
        assert calls == [(hook, at)]
        assert method.sparsity() == pytest.approx(0.7, abs=0.05)
