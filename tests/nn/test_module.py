"""Module system: registration, iteration, state dicts, train/eval."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter, Sequential
from repro.tensor import Tensor


class Branchy(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(4, 3, rng=np.random.default_rng(0))
        self.extra = Parameter(np.ones(2, dtype=np.float32))
        self.register_buffer("counter", np.zeros(1, dtype=np.float32))

    def forward(self, x):
        return self.linear(x)


class TestRegistration:
    def test_parameters_discovered(self):
        model = Branchy()
        names = [name for name, _ in model.named_parameters()]
        assert set(names) == {"extra", "linear.weight", "linear.bias"}

    def test_reassignment_keeps_registry_consistent(self):
        model = Branchy()
        model.extra = "not a parameter anymore"
        names = [name for name, _ in model.named_parameters()]
        assert "extra" not in names

    def test_named_modules(self):
        model = Branchy()
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "linear" in names

    def test_count_parameters(self):
        model = Branchy()
        assert model.count_parameters() == 4 * 3 + 3 + 2


class TestStateDict:
    def test_roundtrip(self):
        model = Branchy()
        state = model.state_dict()
        assert "linear.weight" in state and "counter" in state
        original = model.linear.weight.data.copy()
        model.linear.weight.data += 1.0
        model.load_state_dict(state)
        assert np.allclose(model.linear.weight.data, original)

    def test_state_dict_copies(self):
        model = Branchy()
        state = model.state_dict()
        model.linear.weight.data += 5.0
        assert not np.allclose(state["linear.weight"], model.linear.weight.data)

    def test_load_shape_mismatch_raises(self):
        model = Branchy()
        state = model.state_dict()
        state["linear.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_unknown_key_raises(self):
        model = Branchy()
        with pytest.raises(KeyError):
            model.load_state_dict({"nonexistent": np.zeros(1)})

    def test_buffer_roundtrip(self):
        model = Branchy()
        model.update_buffer("counter", np.array([42.0], dtype=np.float32))
        state = model.state_dict()
        model.update_buffer("counter", np.array([0.0], dtype=np.float32))
        model.load_state_dict(state)
        assert model.counter[0] == 42.0

    def test_update_unknown_buffer_raises(self):
        model = Branchy()
        with pytest.raises(KeyError):
            model.update_buffer("nope", np.zeros(1))


class TestTrainEval:
    def test_mode_propagates(self):
        model = Sequential(Linear(2, 2), Linear(2, 2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = Branchy()
        x = Tensor(np.ones((1, 4), dtype=np.float32))
        model(x).sum().backward()
        assert model.linear.weight.grad is not None
        model.zero_grad()
        assert model.linear.weight.grad is None


class TestSequential:
    def test_order_and_indexing(self):
        first = Linear(3, 5, rng=np.random.default_rng(1))
        second = Linear(5, 2, rng=np.random.default_rng(2))
        model = Sequential(first, second)
        assert model[0] is first and model[1] is second
        assert len(model) == 2
        out = model(Tensor(np.zeros((4, 3), dtype=np.float32)))
        assert out.shape == (4, 2)

    def test_iteration(self):
        model = Sequential(Linear(2, 2), Linear(2, 2))
        assert len(list(model)) == 2
