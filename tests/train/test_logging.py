"""Training-history logging."""

import json

from repro.train import read_history_csv, write_history_csv, write_history_json
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
        loaded = read_history_csv(path)
        assert len(loaded) == 2
        assert loaded[0].epoch == 0
        assert loaded[1].sparsity == 0.7
        assert loaded[0].as_dict() == history[0].as_dict()

    def test_creates_parent_dir(self, tmp_path):
        path = tmp_path / "nested" / "history.csv"
        write_history_csv(path, sample_history())
        assert path.exists()


class TestJSON:
    def test_write(self, tmp_path):
        path = tmp_path / "history.json"
        write_history_json(path, sample_history())
        payload = json.loads(path.read_text())
        assert len(payload["history"]) == 2
        assert payload["history"][1]["test_accuracy"] == 0.5


class TestOldCSV:
    def test_missing_or_empty_dispatch_share_reads_as_zero(self, tmp_path):
        columns = ["epoch", "train_loss", "train_accuracy", "test_accuracy",
                   "sparsity", "density", "spike_rate", "learning_rate"]
        values = ["3", "1.25", "0.5", "0.4", "0.9", "0.1", "0.2", "0.05"]
        old = tmp_path / "old.csv"
        old.write_text(",".join(columns) + "\n" + ",".join(values) + "\n")
        empty = tmp_path / "empty.csv"
        empty.write_text(
            ",".join(columns + ["csr_dispatch_share"]) + "\n"
            + ",".join(values + [""]) + "\n"
        )
        want = EpochStats(epoch=3, train_loss=1.25, train_accuracy=0.5,
                          test_accuracy=0.4, sparsity=0.9, density=0.1,
                          spike_rate=0.2, learning_rate=0.05)
        for path in (old, empty):
            (loaded,) = read_history_csv(path)
            assert loaded == want
            assert loaded.csr_dispatch_share == 0.0
            assert type(loaded.epoch) is int
