"""Small shared utilities: seeding, timing, result serialization.

Imports nothing beyond :mod:`repro.nn.init`, so the data, stream,
sparse and training layers can all use it without an import cycle.
"""

from __future__ import annotations

import json
import os
import socket
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Union

import numpy as np

from .nn import init as nn_init


def seed_everything(seed: int) -> np.random.Generator:
    """Seed numpy's legacy RNG and the layer-init default generator.

    Returns a fresh ``Generator`` for the caller's own sampling needs.
    Code in this library threads explicit generators where determinism
    matters; this helper covers the module-level defaults.
    """
    np.random.seed(seed)
    nn_init.set_default_seed(seed)
    return np.random.default_rng(seed)


class Timer:
    """Wall-clock timer usable as a context manager.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.start


def stream_seed(seed: int, stream_id: str) -> int:
    """Stable per-stream seed: experiment seed folded with the id."""
    return (int(seed) * 0x9E3779B1 + zlib.crc32(stream_id.encode("utf-8"))) % (2**32)


@contextmanager
def timed(label: str, sink=print):
    """Context manager printing '<label>: <seconds>s' on exit."""
    start = time.perf_counter()
    yield
    sink(f"{label}: {time.perf_counter() - start:.2f}s")


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays for json.dump."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def save_json(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """Write a dict (numpy-friendly) as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)


def load_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a JSON file written by :func:`save_json`."""
    with open(path) as handle:
        return json.load(handle)


def atomic_replace(write: Callable[[Path], None], final_path: Union[str, Path]) -> None:
    """Write via ``write(tmp_path)`` then atomically rename into place.

    The tmp name is host- and pid-qualified, so concurrent writers of
    the same path — even from different machines sharing a filesystem,
    as the sweep queue's spool allows — each produce their own complete
    temporary and the renames serialize; readers only ever observe one
    writer's full bytes.
    """
    final_path = Path(final_path)
    tmp = final_path.with_name(
        f"{final_path.name}.tmp-{socket.gethostname()}-{os.getpid()}"
    )
    try:
        write(tmp)
        os.replace(tmp, final_path)
    except BaseException:
        # A failed write (ENOSPC, a crash mid-serialize) must not
        # strand temporaries — on shared spools they accumulate.
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def save_json_atomic(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """:func:`save_json` with the :func:`atomic_replace` guarantee."""
    atomic_replace(lambda tmp: save_json(tmp, payload), path)
