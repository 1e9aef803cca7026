"""Fault injection and restoration."""

import numpy as np
import pytest

from repro.snn.models import SpikingMLP
from repro.sparse import SparsityManager
from repro.train import (
    inject_bit_flips,
    inject_dead_neurons,
    inject_weight_dropout,
    inject_weight_noise,
    restore,
)
from repro.train.faults import (
    FAULT_VOCABULARY,
    FaultInjectionCallback,
    FaultSpec,
    build_injector,
    parse_fault_spec,
)


def make_model(seed=0):
    return SpikingMLP(in_features=12, num_classes=3, hidden=(16,), timesteps=2,
                      rng=np.random.default_rng(seed))


def weights_of(model):
    from repro.sparse import sparsifiable_parameters
    return {n: p.data.copy() for n, p in sparsifiable_parameters(model)}


class TestRestore:
    @pytest.mark.parametrize("injector,kwargs", [
        (inject_weight_noise, {"sigma": 0.5}),
        (inject_weight_dropout, {"fraction": 0.3}),
        (inject_bit_flips, {"flips_per_layer": 3}),
        (inject_dead_neurons, {"fraction": 0.25}),
    ])
    def test_snapshot_restores_exactly(self, injector, kwargs):
        model = make_model()
        before = weights_of(model)
        snapshot = injector(model, rng=np.random.default_rng(1), **kwargs)
        restore(model, snapshot)
        after = weights_of(model)
        for name in before:
            assert np.array_equal(before[name], after[name])


class TestNoise:
    def test_perturbs_only_active_weights(self):
        model = make_model(seed=1)
        masks = SparsityManager(model, rng=np.random.default_rng(2))
        masks.init_random({name: 0.5 for name in masks.masks})
        before = weights_of(model)
        inject_weight_noise(model, sigma=0.5, rng=np.random.default_rng(3))
        for name, parameter in masks.parameters.items():
            zero_before = before[name] == 0
            assert np.all(parameter.data[zero_before] == 0.0)
            changed = parameter.data != before[name]
            assert changed.any()

    def test_sigma_zero_is_identity(self):
        model = make_model(seed=2)
        before = weights_of(model)
        inject_weight_noise(model, sigma=0.0)
        after = weights_of(model)
        for name in before:
            assert np.allclose(before[name], after[name])

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_weight_noise(make_model(), sigma=-1.0)


class TestDropout:
    def test_kills_requested_fraction(self):
        model = make_model(seed=3)
        before_nonzero = sum(np.count_nonzero(v) for v in weights_of(model).values())
        inject_weight_dropout(model, fraction=0.5, rng=np.random.default_rng(4))
        after_nonzero = sum(np.count_nonzero(v) for v in weights_of(model).values())
        assert after_nonzero < before_nonzero
        assert after_nonzero >= before_nonzero * 0.45

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_weight_dropout(make_model(), fraction=1.5)


class TestBitFlips:
    def test_flips_change_values(self):
        model = make_model(seed=4)
        before = weights_of(model)
        inject_bit_flips(model, flips_per_layer=2, rng=np.random.default_rng(5))
        after = weights_of(model)
        changed = sum(int((before[n] != after[n]).sum()) for n in before)
        assert changed == 2 * len(before)

    def test_mantissa_flip_is_small(self):
        model = make_model(seed=5)
        before = weights_of(model)
        inject_bit_flips(model, flips_per_layer=1, bit=0, rng=np.random.default_rng(6))
        after = weights_of(model)
        for name in before:
            delta = np.abs(after[name] - before[name]).max()
            assert delta < 1e-5  # LSB of the mantissa barely moves the value

    def test_validation(self):
        with pytest.raises(ValueError):
            inject_bit_flips(make_model(), flips_per_layer=1, bit=40)
        with pytest.raises(ValueError):
            inject_bit_flips(make_model(), flips_per_layer=-1)


class TestDeadNeurons:
    def test_rows_fully_zero(self):
        model = make_model(seed=6)
        inject_dead_neurons(model, fraction=0.5, rng=np.random.default_rng(7))
        from repro.sparse import sparsifiable_parameters
        for _, parameter in sparsifiable_parameters(model):
            rows = parameter.data.reshape(parameter.shape[0], -1)
            dead_rows = (rows == 0).all(axis=1)
            assert dead_rows.sum() >= parameter.shape[0] // 2 - 1

    def test_graceful_degradation_of_sparse_model(self):
        """A trained model keeps above-chance accuracy under mild faults."""
        from repro.data import ArrayDataset, DataLoader
        from repro.optim import SGD
        from repro.sparse import NDSNN
        from repro.train import Trainer
        from repro.train.metrics import evaluate

        rng = np.random.default_rng(8)
        means = rng.standard_normal((3, 12)).astype(np.float32) * 2
        labels = np.arange(90) % 3
        images = means[labels] + rng.standard_normal((90, 12)).astype(np.float32) * 0.3
        train = ArrayDataset(images[:60], labels[:60])
        test = ArrayDataset(images[60:], labels[60:])
        train_loader = DataLoader(train, batch_size=12, shuffle=True, rng=np.random.default_rng(9))
        test_loader = DataLoader(test, batch_size=12, shuffle=False)
        model = make_model(seed=7)
        method = NDSNN(initial_sparsity=0.3, final_sparsity=0.6,
                       total_iterations=20, update_frequency=5,
                       rng=np.random.default_rng(10))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        Trainer(model, method, optimizer, train_loader, test_loader=test_loader).fit(5)
        clean = evaluate(model, test_loader)
        inject_weight_noise(model, sigma=0.05, rng=np.random.default_rng(11))
        noisy = evaluate(model, test_loader)
        assert clean > 0.5
        assert noisy > clean - 0.35  # mild noise does not collapse the model


class TestFaultSpecParser:
    """The shared ``kind:key=value`` vocabulary behind --fault flags."""

    def test_parses_kind_and_parameters(self):
        spec = parse_fault_spec("noise:sigma=0.2,relative=false")
        assert spec.kind == "noise"
        assert spec.scope == "weight"
        assert spec.params == {"sigma": 0.2, "relative": False}

    def test_defaults_fill_omitted_parameters(self):
        for kind, (scope, schema) in FAULT_VOCABULARY.items():
            spec = parse_fault_spec(kind)
            assert spec.scope == scope
            assert spec.params == {
                name: default for name, (_, default) in schema.items()
            }

    def test_types_are_coerced(self):
        spec = parse_fault_spec("reconnect:gap=2.5,drop=3")
        assert spec.params["gap"] == 2.5
        assert spec.params["drop"] == 3
        assert isinstance(spec.params["drop"], int)

    def test_unknown_kind_lists_vocabulary(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_spec("gremlins:count=3")

    def test_bad_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="bad parameter"):
            parse_fault_spec("noise:volume=11")
        with pytest.raises(ValueError, match="bad parameter"):
            parse_fault_spec("noise:sigma")  # missing '='
        with pytest.raises(ValueError, match="boolean"):
            parse_fault_spec("noise:relative=maybe")

    def test_spec_is_immutable(self):
        spec = parse_fault_spec("stall")
        with pytest.raises(AttributeError):
            spec.kind = "other"


class TestBuildInjector:
    @pytest.mark.parametrize("spec", [
        "noise:sigma=0.1", "dropout:fraction=0.3",
        "bitflip:flips=2,bit=0", "dead:fraction=0.25",
    ])
    def test_weight_kinds_inject_and_restore(self, spec):
        model = make_model(seed=11)
        before = weights_of(model)
        injector = build_injector(spec, rng=np.random.default_rng(12))
        snapshot = injector(model)
        restore(model, snapshot)
        after = weights_of(model)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_stream_kinds_are_rejected(self):
        with pytest.raises(ValueError, match="StreamFaultInjector"):
            build_injector("channel_dropout:fraction=0.5")
        with pytest.raises(ValueError, match="StreamFaultInjector"):
            build_injector(FaultSpec(kind="stall", scope="stream", params={}))


class TestCallbackFromSpec:
    def test_from_spec_builds_a_working_callback(self):
        callback = FaultInjectionCallback.from_spec(
            "dropout:fraction=0.5", every=2, transient=True,
            rng=np.random.default_rng(13),
        )
        assert callback.every == 2
        assert callback.transient

        class _Method:
            masks = None

        class _Trainer:
            model = make_model(seed=14)
            method = _Method()

        trainer = _Trainer()
        before = weights_of(trainer.model)
        callback.on_epoch_start(trainer, 0)
        assert callback.injections == 1
        dropped = weights_of(trainer.model)
        assert any(
            np.count_nonzero(dropped[n]) < np.count_nonzero(before[n])
            for n in before
        )
        callback.on_epoch_end(trainer, 0, stats=None)  # transient: undo
        after = weights_of(trainer.model)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_every_respects_schedule(self):
        callback = FaultInjectionCallback.from_spec("noise:sigma=0.0", every=2)

        class _Method:
            masks = None

        class _Trainer:
            model = make_model(seed=15)
            method = _Method()

        trainer = _Trainer()
        for epoch in range(4):
            callback.on_epoch_start(trainer, epoch)
        assert callback.injections == 2  # epochs 0 and 2
