"""Training-history logging: CSV and JSON sinks for EpochStats."""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path
from typing import Iterable, List, Union, get_type_hints

from ..utils import save_json
from .trainer import EpochStats

FIELDS = [field.name for field in fields(EpochStats)]
_TYPES = get_type_hints(EpochStats)


def write_history_csv(path: Union[str, Path], history: Iterable[EpochStats]) -> None:
    """Write per-epoch stats as CSV (one row per epoch)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        for stats in history:
            writer.writerow(stats.as_dict())


def read_history_csv(path: Union[str, Path]) -> List[EpochStats]:
    """Read a CSV written by :func:`write_history_csv`.

    An absent or empty column reads back as its field's default, so
    CSVs written before ``csr_dispatch_share`` existed still load.
    """
    with open(path, newline="") as handle:
        return [
            EpochStats(**{name: _TYPES[name](row[name]) for name in FIELDS if row.get(name)})
            for row in csv.DictReader(handle)
        ]


def write_history_json(path: Union[str, Path], history: Iterable[EpochStats]) -> None:
    """Write per-epoch stats as a JSON list."""
    save_json(path, {"history": [stats.as_dict() for stats in history]})
