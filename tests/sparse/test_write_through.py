"""Write-through CSR value maintenance: bit-exactness and coherence.

The optimizer step writes updated active values straight into the
cached :class:`~repro.sparse.storage.CSRPattern` buffer so the forward
never re-gathers.  These tests pin the contract:

* training under ``csr``/``auto`` execution with the write-through
  cache produces byte-identical weights, masks and losses to the same
  run with the cache disabled (every forward re-gathers) — for all
  eight methods plus LTH;
* an out-of-band weight mutation (checkpoint restore via
  ``load_state_dict``) marks the cache stale so the next forward
  re-gathers instead of reading stale values.
"""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.optim import SGD, Adam
from repro.sparse import LTHSNN, MaskedParameter, SparsityManager
from repro.sparse.engine import MaskedParameter as EngineMaskedParameter
from repro.tensor import Tensor, cross_entropy

from test_engine import ITERS, METHOD_FACTORIES, make_model, mask_digests


def train_with_execution(method, execution, iterations=ITERS):
    """The golden-mask harness, but running the CSR kernels."""
    model = make_model()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    method.bind(model, optimizer)
    method.set_execution(execution)
    rng = np.random.default_rng(8)
    losses = []
    for it in range(iterations):
        x = Tensor(rng.standard_normal((8, 16)).astype(np.float32))
        y = rng.integers(0, 4, 8)
        loss = cross_entropy(model(x), y)
        optimizer.zero_grad()
        loss.backward()
        method.after_backward(it)
        optimizer.step()
        method.after_step(it)
        losses.append(float(loss.data))
    return model, method, losses


@pytest.fixture
def force_regather(monkeypatch):
    """Disable the write-through cache: every csr_values() re-gathers."""

    def always_gather(self):
        pattern = self.csr_pattern()
        pattern.gather(self.parameter.data)
        self._values_dirty = False
        return pattern.values

    monkeypatch.setattr(EngineMaskedParameter, "csr_values", always_gather)


class TestWriteThroughBitExactness:
    """Cached values == freshly gathered values, for every method."""

    @pytest.mark.parametrize("name", sorted(METHOD_FACTORIES))
    def test_method_trains_identically_with_and_without_cache(
        self, name, force_regather, monkeypatch
    ):
        # Reference run: write-through disabled (per-forward gather).
        model_ref, method_ref, losses_ref = train_with_execution(
            METHOD_FACTORIES[name](np.random.default_rng(9)), "csr"
        )
        # Cached run: restore the real csr_values and train again.
        monkeypatch.undo()
        model_fast, method_fast, losses_fast = train_with_execution(
            METHOD_FACTORIES[name](np.random.default_rng(9)), "csr"
        )
        assert losses_fast == losses_ref
        assert mask_digests(method_fast.masks.copy_masks()) == mask_digests(
            method_ref.masks.copy_masks()
        )
        for (n, p_fast), (_, p_ref) in zip(
            model_fast.named_parameters(), model_ref.named_parameters()
        ):
            assert np.array_equal(p_fast.data, p_ref.data), n

    def test_lth_round_trains_identically(self, force_regather, monkeypatch):
        def lth_run():
            model = make_model()
            controller = LTHSNN(model, target_sparsity=0.7, rounds=2,
                                rng=np.random.default_rng(9))
            method = controller.method_for_round(1)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            method.bind(model, optimizer)
            method.set_execution("csr")
            rng = np.random.default_rng(8)
            for it in range(ITERS):
                x = Tensor(rng.standard_normal((8, 16)).astype(np.float32))
                y = rng.integers(0, 4, 8)
                loss = cross_entropy(model(x), y)
                optimizer.zero_grad()
                loss.backward()
                method.after_backward(it)
                optimizer.step()
                method.after_step(it)
            controller.prune(1)
            return model, {n: m.copy() for n, m in controller.masks.items()}

        _, masks_ref = lth_run()
        monkeypatch.undo()
        _, masks_fast = lth_run()
        assert mask_digests(masks_fast) == mask_digests(masks_ref)

    @pytest.mark.parametrize("optimizer_cls", (SGD, Adam))
    def test_optimizer_step_refreshes_buffer(self, optimizer_cls):
        layer = Linear(8, 6, rng=np.random.default_rng(20))

        class Wrapper(Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(x)

        model = Wrapper(layer)
        manager = SparsityManager(model, rng=np.random.default_rng(21))
        manager.init_distribution("uniform", 0.3)
        manager.set_execution("csr")
        state = layer.weight_state
        values_before = state.csr_values().copy()
        layer.weight.grad = np.ones_like(layer.weight.data)
        optimizer = optimizer_cls([layer.weight], lr=0.1)
        optimizer.step()
        assert not state._values_dirty  # refreshed in the step itself
        pattern = state.csr_pattern()
        expected = pattern.gather(layer.weight.data).copy()
        assert np.array_equal(state.csr_values(), expected)
        assert not np.array_equal(state.csr_values(), values_before)


class _Sandbox(Module):
    def __init__(self, seed=30):
        super().__init__()
        self.fc = Linear(10, 8, rng=np.random.default_rng(seed))

    def forward(self, x):
        return self.fc(x)


def sandbox_state(seed=30, density=0.4):
    model = _Sandbox(seed)
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_distribution("uniform", density)
    manager.set_execution("csr")
    state = model.fc.weight_state
    state.csr_values()  # warm the cache
    assert not state._values_dirty
    return model, state


class TestStaleness:
    """Out-of-band weight mutations must invalidate the value cache."""

    def test_load_state_dict_marks_stale(self):
        model, state = sandbox_state()
        snapshot = model.state_dict()
        snapshot["fc.weight"] = snapshot["fc.weight"] * 2.0
        model.load_state_dict(snapshot)
        assert state._values_dirty
        pattern = state.csr_pattern()
        np.testing.assert_array_equal(
            state.csr_values(), pattern.gather(model.fc.weight.data)
        )

    def test_topology_edit_rebuilds_index_and_values(self):
        _, state = sandbox_state()
        pattern_before = state.csr_pattern()
        state.drop_by_magnitude(3)
        assert state._values_dirty
        assert state.csr_pattern() is not pattern_before
        fresh = state.csr_values()
        assert fresh.size == state.nonzero_count()

    def test_apply_mask_does_not_dirty(self):
        # Masked weights are already zero, so re-applying the mask
        # leaves active values untouched — the cache must stay warm
        # (this is what keeps after_step free under write-through).
        _, state = sandbox_state()
        state.apply_mask()
        assert not state._values_dirty

    def test_plain_tensor_parameter_is_tolerated(self):
        # Tensors with __slots__ cannot carry the back-reference; the
        # engine must degrade to per-call gathers, not crash.
        tensor = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
        state = MaskedParameter("w", tensor)
        assert getattr(tensor, "_masked_state", None) is None
        assert state.csr_values().size == 16


def frozen_sandbox(seed=30, density=0.4, execution="csr"):
    model = _Sandbox(seed)
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    manager.init_distribution("uniform", density)
    manager.set_execution(execution)
    manager.freeze()
    return model, manager, model.fc.weight_state


#: Every mutation a frozen state must refuse, as ``(model, manager,
#: state) -> None`` calls.
REFUSED_MUTATIONS = {
    "set_mask": lambda model, manager, state: state.set_mask(
        np.ones(state.shape, dtype=np.float32)),
    "drop_by_magnitude": lambda model, manager, state: state.drop_by_magnitude(2),
    "drop_by_score": lambda model, manager, state: state.drop_by_score(
        2, np.ones(state.shape)),
    "grow_by_score": lambda model, manager, state: state.grow_by_score(
        2, np.ones(state.shape)),
    "grow_random": lambda model, manager, state: state.grow_random(2, manager.rng),
    "load_state_dict": lambda model, manager, state: model.load_state_dict(
        {name: value * 2.0 for name, value in model.state_dict().items()}),
    "load_masks": lambda model, manager, state: manager.load_masks(
        {state.name: np.ones(state.shape, dtype=np.float32)}),
    "mark_values_dirty": lambda model, manager, state: state.mark_values_dirty(),
    "write_through": lambda model, manager, state: state.write_through(),
}


class TestFrozenMode:
    """Inference freezing: every mutation path raises, none corrupts.

    The staleness tests above pin the *training* contract (out-of-band
    mutation dirties the cache).  Frozen for serving, the same events
    must fail loudly instead — a server may be reading the CSR buffer
    concurrently, so "dirty and re-gather later" is no longer safe.
    """

    def test_load_state_dict_into_frozen_raises(self):
        model, manager, state = frozen_sandbox()
        snapshot = model.state_dict()
        snapshot["fc.weight"] = snapshot["fc.weight"] * 2.0
        with pytest.raises(RuntimeError, match="frozen for inference"):
            model.load_state_dict(snapshot)
        # The failed restore must not have dirtied the serving cache.
        assert not state._values_dirty

    def test_write_through_raises_without_dirtying(self):
        _, _, state = frozen_sandbox()
        with pytest.raises(RuntimeError, match="optimizer step"):
            state.write_through()
        assert not state._values_dirty

    def test_topology_edit_raises(self):
        _, _, state = frozen_sandbox()
        with pytest.raises(RuntimeError, match="topology edit"):
            state.drop_by_magnitude(2)

    def test_pattern_gather_raises(self):
        _, _, state = frozen_sandbox()
        pattern = state.csr_pattern()
        with pytest.raises(RuntimeError, match="frozen CSRPattern"):
            pattern.gather(state.parameter.data)

    def test_value_buffer_is_readonly(self):
        _, _, state = frozen_sandbox()
        values = state.csr_values()
        with pytest.raises(ValueError):
            values[:] = 0.0

    def test_frozen_forward_still_works(self):
        model, _, _ = frozen_sandbox()
        out = model(Tensor(np.ones((3, 10), dtype=np.float32)))
        assert out.data.shape == (3, 8)
        # Freezing kills dense grad tracking on the masked weight; the
        # (unmasked) bias still tracks, which the serving session's
        # no_grad() suppresses — only the weight matters here.
        assert not model.fc.weight.requires_grad

    @pytest.mark.parametrize("execution", ["dense", "csr"])
    @pytest.mark.parametrize("mutation", sorted(REFUSED_MUTATIONS))
    def test_refused_mutation_writes_nothing(self, execution, mutation):
        # The frozen check comes before the first read, draw or write:
        # on the dense route a late check would change the served output.
        model, manager, state = frozen_sandbox(execution=execution)
        x = Tensor(np.random.default_rng(5).standard_normal((3, 10)).astype(np.float32))
        mask, weight = state.mask.copy(), state.parameter.data.copy()
        output = model(x).data.copy()
        rng_state = manager.rng.bit_generator.state
        with pytest.raises(RuntimeError, match="frozen for inference"):
            REFUSED_MUTATIONS[mutation](model, manager, state)
        np.testing.assert_array_equal(state.mask, mask)
        np.testing.assert_array_equal(state.parameter.data, weight)
        np.testing.assert_array_equal(model(x).data, output)
        assert manager.rng.bit_generator.state == rng_state

    def test_thaw_restores_training_contract(self):
        model, manager, state = frozen_sandbox()
        manager.thaw()
        assert not manager.frozen
        snapshot = model.state_dict()
        snapshot["fc.weight"] = snapshot["fc.weight"] * 2.0
        model.load_state_dict(snapshot)  # no raise once thawed
        assert state._values_dirty
        pattern = state.csr_pattern()
        np.testing.assert_array_equal(
            state.csr_values(), pattern.gather(model.fc.weight.data)
        )

    def test_freeze_is_idempotent(self):
        _, manager, state = frozen_sandbox()
        assert manager.frozen
        manager.freeze()
        assert manager.frozen
        assert not state.parameter.requires_grad
