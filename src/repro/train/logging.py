"""Training-history logging: a CSV sink for EpochStats."""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Union

from .trainer import EpochStats

FIELDS = [field.name for field in fields(EpochStats)]


def write_history_csv(path: Union[str, Path], history: Iterable[EpochStats]) -> None:
    """Write per-epoch stats as CSV (one row per epoch)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        for stats in history:
            writer.writerow(stats.as_dict())

