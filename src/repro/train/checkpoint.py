"""Checkpoints: model weights + masks + schedule position.

Sparse training state is more than the weights — resuming NDSNN needs
the masks and the iteration counter (which drives Eqs. 4/5).  A
checkpoint bundles all of it into one ``.npz`` plus a JSON sidecar.
Two kinds share that format, one writer (:func:`_write_pair`) and one
reader (:func:`_read_pair`):

* :func:`save_checkpoint` / :func:`load_checkpoint` — weights, masks
  and counters, enough to evaluate or fine-tune.
* :func:`save_training_state` / :func:`load_training_state` — the
  *complete* mid-run state (optimizer buffers, LR-scheduler position,
  method auxiliaries, and every RNG stream).  A run restored from it
  continues **bit-identically** to one that was never interrupted; the
  sweep queue's crash-resume is built on this, via
  :class:`CheckpointCallback` at epoch boundaries.

Both kinds are written atomically (a failed or killed save leaves the
previous checkpoint intact) and stamped with a content digest (a torn
pair is ``ValueError("checkpoint pair mismatch …")`` on every reader).
:func:`restore_manager` is the serving restore from either kind.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..nn.module import Module
from ..sparse.dispatch import CalibrationTable
from ..sparse.engine import SparseTrainingMethod, SparsityManager
from ..utils import _jsonable, atomic_replace, load_json, save_json
from .hooks import TrainerCallback

_MASK_PREFIX = "__mask__."
_OPT_PREFIX = "__opt__."
_METHOD_PREFIX = "__method__."
#: Array-name prefix → section of :func:`_read_pair`; the rest are weights.
_SECTIONS = {_MASK_PREFIX: "masks", _OPT_PREFIX: "optimizer", _METHOD_PREFIX: "method"}
_STAMP = "__stamp__"
_EPOCH_STAMP = "__epochs_completed__"  # training-state stamp before the digest

TRAINING_STATE_VERSION = 1


def _digest(arrays: Dict[str, np.ndarray], metadata: Dict) -> str:
    """Content digest of a pair, deterministic so that two writers
    racing identical content on a shared spool stamp identically."""
    digest = hashlib.sha256(json.dumps(_jsonable(metadata), sort_keys=True).encode())
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
        digest.update(value.data)
    return digest.hexdigest()


def _write_pair(path: Path, arrays: Dict[str, np.ndarray], metadata: Dict) -> None:
    """The one writer: stamp, then the ``.npz``, then the ``.json``.

    Each file goes through :func:`~repro.utils.atomic_replace`, which
    also serializes racing writers; the sidecar lands last, so its
    presence marks a complete pair, and the stamp catches the residual
    cross-file interleaving.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    stamped = {**arrays, _STAMP: np.asarray(_digest(arrays, metadata))}

    def write_npz(tmp: Path) -> None:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **stamped)

    atomic_replace(write_npz, path.with_suffix(".npz"))
    atomic_replace(lambda tmp: save_json(tmp, metadata), path.with_suffix(".json"))


def _read_pair(path: Union[str, Path]) -> Tuple[Dict[str, Dict[str, np.ndarray]], Dict]:
    """The one reader: ``(sections, metadata)`` with the stamp checked.

    ``sections`` splits the arrays into ``weights``, ``masks``,
    ``optimizer`` and ``method``.  Unstamped pairs (written before
    stamping) load as they are; a truncated ``.npz`` is a ``ValueError``.
    """
    path = Path(path)
    try:
        with np.load(path.with_suffix(".npz")) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except zipfile.BadZipFile as error:
        raise ValueError(f"checkpoint {path} is truncated or corrupt: {error}") from error
    metadata = load_json(path.with_suffix(".json"))
    stamp = arrays.pop(_STAMP, None)
    epochs = arrays.pop(_EPOCH_STAMP, None)
    if (stamp is not None and str(stamp) != _digest(arrays, metadata)) or (
        epochs is not None and int(epochs) != metadata.get("epochs_completed")
    ):
        raise ValueError(
            f"checkpoint pair mismatch at {path}: the .npz and .json are "
            "from different saves"
        )
    sections = {section: {} for section in ("weights", *_SECTIONS.values())}
    for key, value in arrays.items():
        prefix = next((p for p in _SECTIONS if key.startswith(p)), None)
        if prefix is None:
            sections["weights"][key] = value
        else:
            sections[_SECTIONS[prefix]][key[len(prefix):]] = value
    return sections, metadata


def _model_arrays(model: Module, method: Optional[SparseTrainingMethod]) -> Dict:
    """Weights plus the method's masks (when it has them), as saved."""
    arrays = dict(model.state_dict())
    if method is not None and method.masks is not None:
        for name, mask in method.masks.masks.items():
            arrays[_MASK_PREFIX + name] = mask
    return arrays


def _load_model(sections: Dict, model: Module, method: Optional[SparseTrainingMethod]) -> None:
    """Weights into ``model``; masks into the bound ``method``, if given."""
    model.load_state_dict(sections["weights"])
    if sections["masks"] and method is not None:
        if method.masks is None:
            raise ValueError("method has no mask manager; bind it before loading masks")
        method.masks.load_masks(sections["masks"])


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
    metadata = {
        "iteration": iteration,
        "epoch": epoch,
        "has_masks": method is not None and method.masks is not None,
        "extra": extra or {},
    }
    _write_pair(Path(path), _model_arrays(model, method), metadata)


def load_checkpoint(
    path: Union[str, Path],
    model: Module,
    method: Optional[SparseTrainingMethod] = None,
) -> Dict:
    """Restore weights (and masks) from either checkpoint kind.

    Returns the metadata dict (iteration/epoch/extra).  The method must
    already be bound (its mask manager exists) for masks to load.
    """
    sections, metadata = _read_pair(path)
    _load_model(sections, model, method)
    return metadata


def restore_manager(
    path: Union[str, Path], model: Module, execution: str = "auto"
) -> SparsityManager:
    """Serving restore from either checkpoint kind.

    Loads the weights into ``model`` and returns a fresh manager over
    the checkpoint's masks, its persisted dispatch-calibration table
    (when present) and ``execution``.  The training-only payload is
    ignored; no trainer, method or optimizer is needed.
    """
    sections, metadata = _read_pair(path)
    model.load_state_dict(sections["weights"])
    manager = SparsityManager(model)
    if sections["masks"]:
        manager.load_masks(sections["masks"])
    if metadata.get("calibration"):
        manager.calibration = CalibrationTable.from_meta(metadata["calibration"])
    manager.set_execution(execution)
    return manager


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
    loader's shuffle-RNG state, and the per-epoch history so far.
    Written through the same atomic, stamped writer as
    :func:`save_checkpoint`, so a crash mid-save never corrupts one.
    """
    method = trainer.method
    arrays = _model_arrays(trainer.model, method)
    for key, value in trainer.optimizer.state_arrays().items():
        arrays[_OPT_PREFIX + key] = value
    for key, value in method.state_arrays().items():
        arrays[_METHOD_PREFIX + key] = value
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
    _write_pair(Path(path), arrays, metadata)


def load_training_state(path: Union[str, Path], trainer) -> Dict:
    """Restore a checkpoint written by :func:`save_training_state`.

    The trainer must be freshly constructed from the *same* config
    (same model geometry, method, optimizer and loaders); every captured
    state — weights, masks, momentum, scheduler position, method
    auxiliaries and RNG streams — is overwritten in place.  Returns the
    metadata dict (``epochs_completed``, ``history``, ...).
    """
    sections, metadata = _read_pair(path)
    method = trainer.method
    _load_model(sections, trainer.model, method)
    method.load_state_arrays(sections["method"])
    method.load_state_meta(metadata.get("method", {}))
    calibration_meta = metadata.get("calibration")
    if calibration_meta and method.masks is not None:
        # Overrides any freshly measured table: checkpointed dispatch
        # decisions win so resume stays bit-identical.
        method.masks.calibration = CalibrationTable.from_meta(calibration_meta)

    optimizer_meta = dict(metadata.get("optimizer", {}))
    lr = optimizer_meta.pop("lr", None)
    if lr is not None:
        trainer.optimizer.lr = float(lr)
    trainer.optimizer.load_state_arrays(sections["optimizer"])
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
