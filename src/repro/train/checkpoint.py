"""Training checkpoints: model weights + masks + schedule position.

Sparse training state is more than the weights — resuming NDSNN needs
the masks and the iteration counter (which drives Eqs. 4/5).  A
checkpoint bundles all of it into one ``.npz`` plus a JSON sidecar.

Two granularities live here:

* :func:`save_checkpoint` / :func:`load_checkpoint` — the historical
  weights+masks+counters snapshot, enough to evaluate or fine-tune.
* :func:`save_training_state` / :func:`load_training_state` — the
  *complete* mid-run state (optimizer buffers, LR-scheduler position,
  method auxiliaries, and every RNG stream), written atomically so a
  process killed mid-save leaves the previous checkpoint intact.  A
  run restored from it continues **bit-identically** to one that was
  never interrupted; the sweep queue's crash-resume is built on this,
  via :class:`CheckpointCallback` at epoch boundaries.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..nn.module import Module
from ..sparse.engine import SparseTrainingMethod
from ..utils import atomic_replace, load_json, load_state_dict, save_json, save_state_dict
from .hooks import TrainerCallback

_MASK_PREFIX = "__mask__."
_OPT_PREFIX = "__opt__."
_METHOD_PREFIX = "__method__."

TRAINING_STATE_VERSION = 1


def save_checkpoint(
    path: Union[str, Path],
    model: Module,
    method: Optional[SparseTrainingMethod] = None,
    iteration: int = 0,
    epoch: int = 0,
    extra: Optional[Dict] = None,
) -> None:
    """Write model weights, sparse masks and counters to disk.

    Produces ``<path>.npz`` (arrays) and ``<path>.json`` (metadata).
    """
    path = Path(path)
    arrays: Dict[str, np.ndarray] = dict(model.state_dict())
    if method is not None and method.masks is not None:
        for name, mask in method.masks.masks.items():
            arrays[_MASK_PREFIX + name] = mask
    save_state_dict(path.with_suffix(".npz"), arrays)
    metadata = {
        "iteration": iteration,
        "epoch": epoch,
        "has_masks": method is not None and method.masks is not None,
        "extra": extra or {},
    }
    save_json(path.with_suffix(".json"), metadata)


def load_checkpoint(
    path: Union[str, Path],
    model: Module,
    method: Optional[SparseTrainingMethod] = None,
) -> Dict:
    """Restore a checkpoint written by :func:`save_checkpoint`.

    Returns the metadata dict (iteration/epoch/extra).  The method must
    already be bound (its mask manager exists) for masks to load.
    """
    path = Path(path)
    arrays = load_state_dict(path.with_suffix(".npz"))
    weights = {k: v for k, v in arrays.items() if not k.startswith(_MASK_PREFIX)}
    masks = {
        k[len(_MASK_PREFIX):]: v for k, v in arrays.items() if k.startswith(_MASK_PREFIX)
    }
    model.load_state_dict(weights)
    if masks and method is not None:
        if method.masks is None:
            raise ValueError("method has no mask manager; bind it before loading masks")
        method.masks.load_masks(masks)
    return load_json(path.with_suffix(".json"))


# ----------------------------------------------------------------------
# Inference-only restore (serving)
# ----------------------------------------------------------------------
class InferenceState:
    """What serving needs from a checkpoint: weights, masks, metadata.

    Produced by :func:`load_inference_state`; the training-only payload
    (optimizer buffers, method auxiliaries, RNG streams) is discarded.
    """

    __slots__ = ("masks", "metadata", "calibration")

    def __init__(self, masks, metadata, calibration) -> None:
        self.masks = masks
        self.metadata = metadata
        self.calibration = calibration


def load_inference_state(path: Union[str, Path], model: Module) -> InferenceState:
    """Load just the inference-relevant slice of any checkpoint format.

    Accepts both :func:`save_checkpoint` and :func:`save_training_state`
    files: model weights are restored into ``model``, masks and the
    persisted dispatch-calibration table (when present) are returned
    for the caller to hand to a fresh
    :class:`~repro.sparse.engine.SparsityManager`.  No trainer, method
    or optimizer is required — this is the serving-side entry point.
    """
    path = Path(path)
    arrays = load_state_dict(path.with_suffix(".npz"))
    metadata = load_json(path.with_suffix(".json"))
    arrays.pop("__epochs_completed__", None)
    weights: Dict[str, np.ndarray] = {}
    masks: Dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        if key.startswith(_MASK_PREFIX):
            masks[key[len(_MASK_PREFIX):]] = value
        elif key.startswith((_OPT_PREFIX, _METHOD_PREFIX)):
            continue
        else:
            weights[key] = value
    model.load_state_dict(weights)
    calibration = None
    calibration_meta = metadata.get("calibration")
    if calibration_meta:
        from ..sparse.dispatch import CalibrationTable

        calibration = CalibrationTable.from_meta(calibration_meta)
    return InferenceState(masks=masks, metadata=metadata, calibration=calibration)


# ----------------------------------------------------------------------
# Full training-state checkpoints (bit-identical resume)
# ----------------------------------------------------------------------
def _encoder_rng_state(model) -> Optional[dict]:
    """State of the input encoder's RNG stream, if it owns one.

    Rate coding (:class:`~repro.snn.encoding.PoissonEncoder`) draws
    Bernoulli spikes per forward; without capturing its stream a
    resumed run would re-draw different spike trains and diverge from
    the uninterrupted one.
    """
    encoder_rng = getattr(getattr(model, "encoder", None), "rng", None)
    if encoder_rng is None:
        return None
    return encoder_rng.bit_generator.state


def _transform_rngs(loader) -> list:
    """Generators held by the loader's (possibly composed) transforms.

    ``RandomCrop`` / ``RandomHorizontalFlip`` expose theirs as ``.rng``;
    deduplicated by identity since composed stages may share one
    generator (``standard_train_transform`` does).
    """
    transform = getattr(loader, "transform", None)
    stages = getattr(transform, "transforms", [] if transform is None else [transform])
    rngs = []
    seen = set()
    for stage in stages:
        rng = getattr(stage, "rng", None)
        if rng is not None and id(rng) not in seen:
            seen.add(id(rng))
            rngs.append(rng)
    return rngs


def has_training_state(path: Union[str, Path]) -> bool:
    """True if a complete training-state checkpoint exists at ``path``."""
    path = Path(path)
    return path.with_suffix(".json").exists() and path.with_suffix(".npz").exists()


def save_training_state(
    path: Union[str, Path],
    trainer,
    epochs_completed: int,
    history=None,
) -> None:
    """Atomically write the complete resumable state of a training run.

    Captures, beyond :func:`save_checkpoint`'s weights/masks/counters:
    the optimizer's momentum buffers, the LR scheduler position, the
    method's auxiliary arrays and RNG position (see
    ``SparseTrainingMethod.state_arrays``/``state_meta``), the train
    loader's shuffle-RNG state, and the per-epoch history so far.  The
    ``.npz`` is written first and the ``.json`` sidecar last — each via
    tmp-file + ``os.replace`` — so the sidecar's presence marks a
    complete checkpoint and a crash mid-save can never corrupt one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    method = trainer.method
    arrays: Dict[str, np.ndarray] = dict(trainer.model.state_dict())
    if method.masks is not None:
        for name, mask in method.masks.masks.items():
            arrays[_MASK_PREFIX + name] = mask
    for key, value in trainer.optimizer.state_arrays().items():
        arrays[_OPT_PREFIX + key] = value
    for key, value in method.state_arrays().items():
        arrays[_METHOD_PREFIX + key] = value

    # Pairing stamp: the .npz and .json are replaced as two separate
    # renames, so a concurrent writer could interleave them.  Stamping
    # epochs_completed into the array file lets the loader detect (and
    # reject) a mismatched pair instead of silently resuming from it.
    arrays["__epochs_completed__"] = np.asarray(int(epochs_completed))

    loader_rng = getattr(trainer.train_loader, "rng", None)
    scheduler = trainer.scheduler
    metadata = {
        "version": TRAINING_STATE_VERSION,
        "epochs_completed": int(epochs_completed),
        "iteration": int(trainer.iteration),
        "optimizer": {"lr": float(trainer.optimizer.lr), **trainer.optimizer.state_meta()},
        "scheduler_last_epoch": None if scheduler is None else int(scheduler.last_epoch),
        "loader_rng_state": None if loader_rng is None else loader_rng.bit_generator.state,
        "transform_rng_states": [
            rng.bit_generator.state for rng in _transform_rngs(trainer.train_loader)
        ],
        "encoder_rng_state": _encoder_rng_state(trainer.model),
        "method": method.state_meta(),
        "history": [stats.as_dict() for stats in history or []],
    }
    # The measured dispatch table travels with the run: a resumed worker
    # restores these cutoffs instead of re-timing, so its dense-vs-CSR
    # routing (and therefore its arithmetic) is bit-identical to the
    # uninterrupted run even on different hardware.
    if method.masks is not None and method.masks.calibration is not None:
        metadata["calibration"] = method.masks.calibration.to_meta()

    def write_npz(tmp: Path) -> None:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    # atomic_replace serializes racing writers (a reaped-but-alive
    # worker vs its replacement on a shared spool); the pairing stamp
    # above catches the residual cross-file interleaving.
    atomic_replace(write_npz, path.with_suffix(".npz"))
    atomic_replace(lambda tmp: save_json(tmp, metadata), path.with_suffix(".json"))


def load_training_state(path: Union[str, Path], trainer) -> Dict:
    """Restore a checkpoint written by :func:`save_training_state`.

    The trainer must be freshly constructed from the *same* config
    (same model geometry, method, optimizer and loaders); every captured
    state — weights, masks, momentum, scheduler position, method
    auxiliaries and RNG streams — is overwritten in place.  Returns the
    metadata dict (``epochs_completed``, ``history``, ...).
    """
    path = Path(path)
    arrays = load_state_dict(path.with_suffix(".npz"))
    metadata = load_json(path.with_suffix(".json"))
    stamp = arrays.pop("__epochs_completed__", None)
    if stamp is not None and int(stamp) != int(metadata.get("epochs_completed", -1)):
        raise ValueError(
            f"checkpoint pair mismatch at {path}: arrays are from epoch "
            f"{int(stamp)}, metadata from epoch {metadata.get('epochs_completed')}"
        )
    weights: Dict[str, np.ndarray] = {}
    masks: Dict[str, np.ndarray] = {}
    opt_arrays: Dict[str, np.ndarray] = {}
    method_arrays: Dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        if key.startswith(_MASK_PREFIX):
            masks[key[len(_MASK_PREFIX):]] = value
        elif key.startswith(_OPT_PREFIX):
            opt_arrays[key[len(_OPT_PREFIX):]] = value
        elif key.startswith(_METHOD_PREFIX):
            method_arrays[key[len(_METHOD_PREFIX):]] = value
        else:
            weights[key] = value

    trainer.model.load_state_dict(weights)
    method = trainer.method
    if masks:
        if method.masks is None:
            raise ValueError("method has no mask manager; bind it before loading masks")
        method.masks.load_masks(masks)
    method.load_state_arrays(method_arrays)
    method.load_state_meta(metadata.get("method", {}))
    calibration_meta = metadata.get("calibration")
    if calibration_meta and method.masks is not None:
        from ..sparse.dispatch import CalibrationTable

        # Overrides any freshly measured table: checkpointed dispatch
        # decisions win so resume stays bit-identical.
        method.masks.calibration = CalibrationTable.from_meta(calibration_meta)

    optimizer_meta = dict(metadata.get("optimizer", {}))
    lr = optimizer_meta.pop("lr", None)
    if lr is not None:
        trainer.optimizer.lr = float(lr)
    trainer.optimizer.load_state_arrays(opt_arrays)
    trainer.optimizer.load_state_meta(optimizer_meta)

    if trainer.scheduler is not None and metadata.get("scheduler_last_epoch") is not None:
        trainer.scheduler.last_epoch = int(metadata["scheduler_last_epoch"])
    loader_rng_state = metadata.get("loader_rng_state")
    loader_rng = getattr(trainer.train_loader, "rng", None)
    if loader_rng_state is not None and loader_rng is not None:
        loader_rng.bit_generator.state = loader_rng_state
    encoder_rng_state = metadata.get("encoder_rng_state")
    encoder_rng = getattr(getattr(trainer.model, "encoder", None), "rng", None)
    if encoder_rng_state is not None and encoder_rng is not None:
        encoder_rng.bit_generator.state = encoder_rng_state
    transform_states = metadata.get("transform_rng_states") or []
    transform_rngs = _transform_rngs(trainer.train_loader)
    if len(transform_states) != len(transform_rngs):
        raise ValueError(
            f"checkpoint has {len(transform_states)} transform RNG stream(s) "
            f"but the trainer has {len(transform_rngs)}; was the loader "
            "built with a different augmentation setup?"
        )
    for rng, state in zip(transform_rngs, transform_states):
        rng.bit_generator.state = state
    trainer.iteration = int(metadata.get("iteration", 0))
    return metadata


class CheckpointCallback(TrainerCallback):
    """Saves the full resumable training state at epoch boundaries.

    Attaching this to a :class:`~repro.train.trainer.Trainer` makes the
    run crash-resumable: every ``every`` epochs the complete state is
    written (atomically) to ``path``, and
    :func:`~repro.experiments.runner.run_experiment` picks it back up
    with ``resume=True``.  The sweep queue's workers rely on this so a
    SIGKILLed job is resumed by its next claimant instead of recomputed.
    """

    def __init__(self, path: Union[str, Path], every: int = 1) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1 epoch")
        self.path = Path(path)
        self.every = int(every)
        self.saves = 0

    def on_epoch_end(self, trainer, epoch: int, stats) -> None:
        if (epoch + 1) % self.every != 0:
            return
        history = trainer.result.history if trainer.result is not None else [stats]
        save_training_state(self.path, trainer, epochs_completed=epoch + 1, history=history)
        self.saves += 1
