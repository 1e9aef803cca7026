"""Shared utilities."""

import os
import stat

import numpy as np
import pytest

from repro.utils import (
    Timer,
    load_json,
    publish_once,
    save_json,
    seed_everything,
    timed,
)


class TestSeeding:
    def test_returns_generator(self):
        rng = seed_everything(7)
        assert isinstance(rng, np.random.Generator)

    def test_deterministic_layer_init(self):
        from repro.nn import Linear

        seed_everything(11)
        a = Linear(4, 4).weight.data.copy()
        seed_everything(11)
        b = Linear(4, 4).weight.data.copy()
        assert np.array_equal(a, b)


class TestTimer:
    def test_elapsed_nonnegative(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0

    def test_timed_prints(self):
        messages = []
        with timed("work", sink=messages.append):
            pass
        assert len(messages) == 1
        assert messages[0].startswith("work:")


class TestJson:
    def test_roundtrip_with_numpy_types(self, tmp_path):
        payload = {
            "float": np.float32(1.5),
            "int": np.int64(7),
            "array": np.arange(3),
            "nested": {"list": [np.float64(0.25)]},
        }
        path = tmp_path / "out.json"
        save_json(path, payload)
        loaded = load_json(path)
        assert loaded["float"] == 1.5
        assert loaded["int"] == 7
        assert loaded["array"] == [0, 1, 2]
        assert loaded["nested"]["list"] == [0.25]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "out.json"
        save_json(path, {"a": 1})
        assert path.exists()


class TestPublishOnce:
    def test_the_first_publisher_wins(self, tmp_path):
        path = tmp_path / "token.json"
        assert publish_once(path, {"attempt": np.int64(1)}) is True
        assert publish_once(path, {"attempt": 2}) is False
        assert load_json(path) == {"attempt": 1}
        # World-readable, and no temp file outlives a publish.
        assert os.stat(path).st_mode & stat.S_IROTH
        assert os.listdir(tmp_path) == ["token.json"]

    def test_a_missing_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            publish_once(tmp_path / "missing" / "token.json", {"attempt": 1})
        assert os.listdir(tmp_path) == []
