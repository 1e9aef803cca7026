"""Model registry and inference sessions over trained checkpoints."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..nn.module import Module
from ..sparse.engine import SparsityManager
from ..sparse.inference import serving_storage_report
from ..sparse.structured import compact_model
from ..tensor import Tensor, no_grad

# NOTE: repro.train / repro.experiments are imported lazily inside
# load_checkpoint only.  Package-backed serving (load_package) must work
# without the training stack in the process — the no-training-import
# test pins this.

DEFAULT_MAX_BATCH = 8


class InferenceSession:
    """One inference-frozen model instance owned by one worker thread.

    Spiking forwards are stateful (neuron membranes reset per call), so
    sessions must never be shared between threads — the registry hands
    each worker its own.  On construction the model goes to eval mode
    and the manager freezes: masks applied, CSR values gathered into
    read-only buffers, dense gradient tracking off, and every mutation
    path raising instead of corrupting the serving weights.

    Every forward runs at one canonical batch shape (``max_batch``,
    short batches zero-padded and the padding rows discarded): BLAS
    kernels pick different reduction orders for different GEMM shapes,
    so without the padding a request's result would depend on how the
    batcher happened to group it.  With it, batched and sequential
    inference are bit-identical — the concurrency tests pin this down.
    """

    def __init__(
        self,
        model: Module,
        manager: SparsityManager,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.model = model
        self.manager = manager
        self.max_batch = int(max_batch)
        model.eval()
        manager.freeze()

    def predict(self, inputs) -> np.ndarray:
        """Model outputs for a batch of inputs (any row count)."""
        data = np.asarray(inputs, dtype=np.float32)
        if data.ndim < 2:
            raise ValueError("predict expects a batch (rows are samples)")
        rows = data.shape[0]
        outputs = []
        with no_grad():
            for start in range(0, rows, self.max_batch):
                chunk = data[start:start + self.max_batch]
                n = chunk.shape[0]
                if n < self.max_batch:
                    pad = np.zeros(
                        (self.max_batch - n,) + chunk.shape[1:], dtype=np.float32
                    )
                    chunk = np.concatenate([chunk, pad], axis=0)
                out = self.model(Tensor(chunk)).data
                outputs.append(out[:n])
        return np.concatenate(outputs, axis=0)

    def predict_one(self, sample) -> np.ndarray:
        """Model output for a single sample."""
        return self.predict(np.asarray(sample)[None])[0]

    def dispatch_report(self) -> List[Dict]:
        """Per-layer dense-vs-CSR routing decisions."""
        return [
            self.manager.explain_dispatch(name) for name in self.manager.states
        ]

    def storage_report(self) -> Dict:
        """Per-layer CSR-vs-dense storage accounting (§III-D, live)."""
        return serving_storage_report(self.manager)


#: A factory returns a fresh ``(model, manager)`` pair per call, so
#: every worker session owns independent membrane state.
SessionFactory = Callable[[], Tuple[Module, SparsityManager]]


class ModelRegistry:
    """Named model factories that mint per-worker inference sessions."""

    def __init__(self) -> None:
        self._factories: Dict[str, SessionFactory] = {}
        self._max_batch: Dict[str, int] = {}

    def register(
        self,
        name: str,
        factory: SessionFactory,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> "ModelRegistry":
        """Register a factory under ``name`` (later wins, like a dict)."""
        self._factories[name] = factory
        self._max_batch[name] = int(max_batch)
        return self

    def names(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def session(self, name: str, max_batch: Optional[int] = None) -> InferenceSession:
        """Build a fresh session for one worker thread."""
        if name not in self._factories:
            raise KeyError(
                f"no model {name!r} registered (have: {self.names()})"
            )
        model, manager = self._factories[name]()
        batch = max_batch if max_batch is not None else self._max_batch[name]
        return InferenceSession(model, manager, max_batch=batch)

    def load_checkpoint(
        self,
        name: str,
        config,
        path: Union[str, Path],
        execution: str = "auto",
        compact: bool = False,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> "ModelRegistry":
        """Register a checkpoint-backed model.

        The factory rebuilds the model geometry from ``config``
        (:func:`~repro.experiments.runner.build_experiment_model`),
        restores weights/masks/calibration from either checkpoint kind
        (:func:`~repro.train.checkpoint.restore_manager`), and
        under ``compact=True`` slices structurally-pruned filters out
        (:func:`~repro.sparse.structured.compact_model`) so serving
        runs genuinely smaller dense kernels while unstructured-sparse
        layers keep the CSR route.
        """
        from ..experiments.runner import build_experiment_model
        from ..train.checkpoint import restore_manager

        path = Path(path)

        def factory() -> Tuple[Module, SparsityManager]:
            model = build_experiment_model(config)
            manager = restore_manager(path, model, execution)
            if compact:
                manager = compact_model(model, manager)
            return model, manager

        return self.register(name, factory, max_batch=max_batch)

    def load_package(
        self,
        name: str,
        path: Union[str, Path],
        precision: Optional[str] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> "ModelRegistry":
        """Register a packed ``.reprom`` artifact (mmap, zero-copy).

        The file is mapped **once**; every session the factory mints
        rebuilds only the model geometry (under
        :func:`~repro.nn.init.skip_init`) and aliases the shared map
        for its CSR values and f16 biases — N workers cost one copy of
        the weights.  ``precision`` picks the value buffers: the default
        ``"f32"`` pre-scales quantized values into frozen float32 CSR
        buffers at load; ``"f16"`` / ``"int8"`` run the same CSR
        kernels straight off the mapped buffers at stored precision
        (see :func:`~repro.sparse.packaging.build_packed_runtime`).  No
        training-stack module is imported on this path.
        """
        from ..sparse.packaging import PackedModel, build_packed_runtime

        package = PackedModel(path)

        def factory():
            return build_packed_runtime(package, precision=precision)

        return self.register(name, factory, max_batch=max_batch)
