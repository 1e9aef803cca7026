"""Dispatch counts live on the manager that owns the layers.

Every masked product (a training or module-path forward, a compiled plan
op) adds 1 to its route in its layer's ``SparsityManager.dispatch_counts``
and nowhere else, so one model's routes cannot leak into another's
counts: not across two server workers, and not into a training run's
``csr_dispatch_share``.
"""

import threading

import numpy as np

from repro.data import ArrayDataset, DataLoader
from repro.optim import SGD
from repro.serve import InferenceServer, InferenceSession
from repro.snn.models import SpikingMLP
from repro.sparse import SETSNN, SparsityManager
from repro.stream import StreamEvent, StreamSession
from repro.stream.plan import compile_plan
from repro.tensor import Tensor, no_grad
from repro.train import Trainer, TrainerCallback

FEATURES = 10
TIMESTEPS = 2


def mixed_manager(seed=0):
    """A 10→12→5 MLP whose first layer runs dense and head runs CSR under ``auto``."""
    model = SpikingMLP(FEATURES, 5, hidden=(12,), timesteps=TIMESTEPS,
                       rng=np.random.default_rng(seed))
    manager = SparsityManager(model, rng=np.random.default_rng(seed + 1))
    first, head = manager.states
    manager.init_random({first: 0.6, head: 0.1})  # static cutoff 0.15
    manager.set_execution("auto")
    return model, manager


def samples(count, seed=5):
    return np.random.default_rng(seed).standard_normal((count, FEATURES)).astype(np.float32)


def test_plan_session_predict_counts_on_its_manager():
    model, manager = mixed_manager()
    session = InferenceSession(model, manager, max_batch=4)
    assert session.execution == "plan"
    session.predict(samples(6))
    # Two padded chunks.  The first layer runs before any neuron, so once
    # per chunk; the head once per timestep.
    assert manager.dispatch_counts == {"dense": 2, "csr": 2 * TIMESTEPS}


def test_stream_plan_step_counts_on_its_manager():
    model, manager = mixed_manager()
    manager.freeze()
    session = StreamSession(model, window=4, manager=manager)
    assert session.execution == "plan"
    frames = samples(3)
    tick = [StreamEvent(f"device-{index}", 0.0, frame) for index, frame in enumerate(frames)]
    session.process_many(tick)
    # One plan step for the whole tick: one product per layer.
    assert manager.dispatch_counts == {"dense": 1, "csr": 1}
    session.process(StreamEvent("device-0", 1.0, frames[0]))
    assert manager.dispatch_counts == {"dense": 2, "csr": 2}


class _OtherModelForward(TrainerCallback):
    """Runs a second bound model's forward after every training step."""

    def __init__(self):
        self.model, self.manager = mixed_manager(seed=7)
        self.manager.set_execution("dense")

    def on_step_end(self, trainer, iteration):
        with no_grad():
            self.model(Tensor(samples(2)))


def _fit_shares(callbacks):
    rng = np.random.default_rng(3)
    images = rng.standard_normal((32, FEATURES)).astype(np.float32)
    loader = DataLoader(ArrayDataset(images, np.arange(32) % 5), batch_size=8,
                        shuffle=True, rng=np.random.default_rng(1))
    model = SpikingMLP(FEATURES, 5, hidden=(12,), timesteps=TIMESTEPS,
                       rng=np.random.default_rng(0))
    method = SETSNN(sparsity=0.5, total_iterations=8, update_frequency=4,
                    rng=np.random.default_rng(2))
    trainer = Trainer(model, method, SGD(model.parameters(), lr=0.1), loader,
                      callbacks=callbacks)
    method.set_execution("csr")
    return [stats.csr_dispatch_share for stats in trainer.fit(2).history]


def test_another_models_forwards_leave_the_training_share():
    other = _OtherModelForward()
    assert _fit_shares([other]) == _fit_shares([]) == [1.0, 1.0]
    assert other.manager.dispatch_counts["dense"] > 0


def test_server_workers_count_only_their_own_forwards():
    sessions = []
    # Both workers' first batches meet here, so each worker runs at least
    # one batch, concurrently with the other.
    barrier = threading.Barrier(2)

    class CountedSession:
        def __init__(self):
            self.session = InferenceSession(*mixed_manager(), max_batch=4)
            self.calls = 0
            sessions.append(self)

        def predict(self, inputs):
            self.calls += 1
            if self.calls == 1:
                barrier.wait(timeout=30.0)
            return self.session.predict(inputs)

    with InferenceServer(CountedSession, workers=2, max_batch=4,
                         max_latency_s=0.0) as server:
        futures = [server.submit(sample) for sample in samples(16)]
        for future in futures:
            future.result(timeout=30.0)
        batches = server.stats()["batches"]
    assert len(sessions) == 2
    assert sum(counted.calls for counted in sessions) == batches
    for counted in sessions:
        assert counted.calls >= 1
        assert counted.session.manager.dispatch_counts == {
            "dense": counted.calls, "csr": TIMESTEPS * counted.calls}


def test_compiling_a_plan_counts_nothing_even_without_its_manager():
    # The probe forward is not a served one: counts on the layers' own
    # manager are put back even when compile_plan is not given it.
    model, manager = mixed_manager()
    manager.freeze()
    manager.dispatch_counts.update(dense=3, csr=4)
    plan, reason = compile_plan(model)
    assert plan is not None, reason
    assert manager.dispatch_counts == {"dense": 3, "csr": 4}
