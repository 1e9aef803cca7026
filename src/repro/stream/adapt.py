"""Continual online mask adaptation for streaming sessions.

Training-time drop/grow (NDSNN, SET, RigL) ranks connections with
gradients; a deployed stream has none.  The streaming signal that *is*
available is activity: which input channels and hidden neurons actually
fire.  :class:`OnlineAdaptation` maintains an exponential moving
average of each masked layer's input activity and scores connections by

    score[i, j] = |W[i, j]| * (eps + activity_ema[j])

so the drop step removes weak synapses on quiet inputs first, and the
grow step reconnects toward busy inputs.  Density is held exactly: the
grow count equals the drop count, so the :class:`SparsityManager`'s
per-layer density targets survive any number of adaptation rounds.

The machinery reuses :class:`~repro.sparse.engine.DropGrowMethod`
wholesale — the streaming method supplies only its constant rate and
the score hooks, and inherits the engine's counts (drop
``death_rate * n_active``, regrow as many) — so audit history
(:class:`UpdateRecord`), momentum bookkeeping and mask re-application
behave exactly as during training.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..snn.neuron import BaseNeuron
from ..sparse.engine import DropGrowMethod, SparsityManager
from .session import StreamResult, StreamSession

_EPS = 1e-3


class OnlineAdaptation(DropGrowMethod):
    """Activity-EMA drop/grow over an already-bound manager.

    Unlike training methods, this adopts an existing ``(model,
    manager)`` pair instead of building its own masks at ``setup`` —
    the streaming session already owns them.

    Parameters
    ----------
    model / manager:
        The served model and its (thawed) sparsity manager.
    death_rate:
        Fraction of each layer's active weights replaced per round.
    ema_decay:
        Decay of the input-activity EMA (per observed event).
    """

    name = "online-adapt"

    def __init__(
        self,
        model,
        manager: SparsityManager,
        death_rate: float = 0.05,
        ema_decay: float = 0.95,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 < death_rate < 1.0:
            raise ValueError("death_rate must lie in (0, 1)")
        if not 0.0 <= ema_decay < 1.0:
            raise ValueError("ema_decay must lie in [0, 1)")
        super().__init__(
            total_iterations=2**31, update_frequency=1, rng=rng
        )
        self.model = model
        self.masks = manager
        self.death_rate = float(death_rate)
        self.ema_decay = float(ema_decay)
        #: Per-layer EMA over the layer's *input* features; absent until
        #: the first observation (scores fall back to magnitude/random).
        self.activity: Dict[str, np.ndarray] = {}
        # Map manager entries ("body.0.weight") to module paths so the
        # observation walk can align activities with layers.
        self._module_of = {
            name: name.rsplit(".", 1)[0] for name in manager.states
        }

    def setup(self) -> None:  # the adopted manager is already configured
        self.history = []

    # ------------------------------------------------------------------
    # Activity observation
    # ------------------------------------------------------------------
    def observe(self, frame: np.ndarray) -> None:
        """Update activity EMAs right after one ``forward_once``.

        Walks the module tree in registration order (which matches
        execution order for the sequential zoo models): the encoded
        input frame feeds the first masked layer, and each
        :class:`BaseNeuron`'s fresh output spikes (``o_prev``) feed the
        masked layers behind it.  Layers whose fan-in does not match
        the tracked activity vector (e.g. conv weights) keep a missing
        EMA and fall back to magnitude scores.
        """
        activity = np.abs(np.asarray(frame, dtype=np.float32)).mean(axis=0)
        module_activity: Dict[str, np.ndarray] = {}
        for path, module in self.model.named_modules():
            module_activity[path] = activity
            if isinstance(module, BaseNeuron) and module.o_prev is not None:
                activity = np.abs(module.o_prev.data).mean(axis=0).reshape(-1)
        for name, state in self.masks.states.items():
            observed = module_activity.get(self._module_of[name])
            if observed is None or observed.ndim != 1:
                continue
            if state.shape[-1] != observed.shape[0]:
                continue
            previous = self.activity.get(name)
            if previous is None:
                self.activity[name] = observed.astype(np.float32)
            else:
                self.activity[name] = (
                    self.ema_decay * previous + (1.0 - self.ema_decay) * observed
                ).astype(np.float32)

    # ------------------------------------------------------------------
    # DropGrowMethod hooks
    # ------------------------------------------------------------------
    def _scores(self, name: str) -> Optional[np.ndarray]:
        ema = self.activity.get(name)
        if ema is None:
            return None
        state = self.masks.states[name]
        weights = np.abs(state.parameter.data)
        return (weights + _EPS) * (ema[None, :] + _EPS)

    def drop_scores(self, name: str) -> Optional[np.ndarray]:
        return self._scores(name)

    def growth_scores(self, name: str) -> Optional[np.ndarray]:
        # Grown weights start at zero, so ranking inactive positions by
        # (|W| + eps) * (ema + eps) reduces to ranking by input
        # activity — reconnect toward busy inputs.
        return self._scores(name)

    def round_death_rate(self, iteration: int) -> float:
        return self.death_rate


class AdaptiveStreamSession(StreamSession):
    """Thawed streaming session with periodic online mask adaptation.

    Every ``adapt_every`` emitted windows the session runs one
    :meth:`OnlineAdaptation.update_topology` round.  Density is held
    (grow == drop per layer), the adaptation history is available as
    ``session.method.history``, and per-stream neuron state is
    untouched by mask edits (membranes live at the neuron layer, not in
    the weights).
    """

    requires_frozen = False

    def __init__(
        self,
        model,
        manager: SparsityManager,
        adapt_every: int = 4,
        death_rate: float = 0.05,
        ema_decay: float = 0.95,
        **session_kwargs,
    ) -> None:
        if adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        if manager.frozen:
            manager.thaw()
        super().__init__(model, manager=manager, **session_kwargs)
        self.adapt_every = int(adapt_every)
        self.method = OnlineAdaptation(
            model, manager, death_rate=death_rate, ema_decay=ema_decay,
            rng=manager.rng,
        )
        self.method.setup()
        self._windows_emitted = 0
        self._rounds = 0

    def _after_step(self, frame: np.ndarray) -> None:
        self.method.observe(frame)

    def _after_window(self, result: StreamResult) -> None:
        self._windows_emitted += 1
        if self._windows_emitted % self.adapt_every == 0:
            self._rounds += 1
            self.method.update_topology(self._rounds)

    @property
    def adaptation_rounds(self) -> int:
        return self._rounds
