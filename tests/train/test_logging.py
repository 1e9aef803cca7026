"""Training-history logging."""

import csv

from repro.train import write_history_csv
from repro.train.trainer import EpochStats


def sample_history():
    return [
        EpochStats(epoch=0, train_loss=1.5, train_accuracy=0.4, test_accuracy=0.35,
                   sparsity=0.6, density=0.4, spike_rate=0.2, learning_rate=0.1),
        EpochStats(epoch=1, train_loss=1.0, train_accuracy=0.6, test_accuracy=0.5,
                   sparsity=0.7, density=0.3, spike_rate=0.21, learning_rate=0.05),
    ]


class TestCSV:
    def test_roundtrip(self, tmp_path):
        history = sample_history()
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["epoch"] == "0"
        assert float(rows[1]["sparsity"]) == 0.7
        for row, stats in zip(rows, history):
            assert row == {name: str(value) for name, value in stats.as_dict().items()}

    def test_creates_parent_dir(self, tmp_path):
        path = tmp_path / "nested" / "history.csv"
        write_history_csv(path, sample_history())
        assert path.exists()
