"""Measured per-shape dispatch calibration (repro.sparse.dispatch).

Covers the cutoff derivation from measured buckets, the write-once
shared cache that makes concurrent calibration deterministic, the
checkpoint round-trip of :class:`CalibrationTable`, and the
manager/layer-level inspection API (``explain_dispatch`` /
``dispatch_info``).
"""

import json
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.sparse import SparsityManager
from repro.sparse.dispatch import (
    CALIBRATION_ENV,
    DENSITY_GRID,
    WIN_MARGIN,
    CalibrationTable,
    clear_process_cache,
    get_cutoff,
    matrix_shape,
    measure_crossover,
)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Private calibration cache per test (shadows the session cache)."""
    directory = tmp_path / "calib"
    monkeypatch.setenv(CALIBRATION_ENV, str(directory))
    clear_process_cache()
    yield directory
    clear_process_cache()


def fake_measure(cutoff, calls=None):
    """Injectable measurement returning a fixed cutoff."""

    def measure(rows, cols, **kwargs):
        if calls is not None:
            calls.append((rows, cols))
        return {"cutoff": cutoff, "buckets": {d: 2.0 for d in DENSITY_GRID}}

    return measure


class TestMeasureCrossover:
    def test_returns_prefix_cutoff_and_buckets(self):
        result = measure_crossover(48, 48, batch=4, repeats=1)
        assert set(result) == {"cutoff", "buckets"}
        assert set(result["buckets"]) == set(DENSITY_GRID)
        # The cutoff is the largest prefix of winning buckets: every
        # bucket at or below it must itself be a win.
        for density, speedup in result["buckets"].items():
            if density <= result["cutoff"]:
                assert speedup >= WIN_MARGIN

    def test_never_perturbs_global_rng(self):
        np.random.seed(123)
        before = np.random.get_state()[1].copy()
        measure_crossover(32, 32, batch=2, repeats=1)
        assert np.array_equal(np.random.get_state()[1], before)


class TestGetCutoff:
    def test_memoized_per_process(self, cache_dir):
        calls = []
        first = get_cutoff(64, 32, measure=fake_measure(0.25, calls))
        second = get_cutoff(64, 32, measure=fake_measure(0.99, calls))
        assert first == second == 0.25
        assert calls == [(64, 32)]  # second call served from memory

    def test_disk_cache_wins_over_fresh_measurement(self, cache_dir):
        get_cutoff(16, 16, measure=fake_measure(0.2))
        clear_process_cache()  # simulate a sibling process
        adopted = get_cutoff(16, 16, measure=fake_measure(0.5))
        assert adopted == 0.2

    def test_write_once_file_is_published(self, cache_dir):
        get_cutoff(8, 24, measure=fake_measure(0.35))
        path = cache_dir / "calibration-8x24.json"
        payload = json.loads(path.read_text())
        assert payload["cutoff"] == 0.35
        assert payload["rows"] == 8 and payload["cols"] == 24

    def test_no_cache_dir_still_memoizes(self, monkeypatch):
        monkeypatch.delenv(CALIBRATION_ENV, raising=False)
        clear_process_cache()
        calls = []
        get_cutoff(40, 40, measure=fake_measure(0.15, calls))
        get_cutoff(40, 40, measure=fake_measure(0.45, calls))
        assert calls == [(40, 40)]
        clear_process_cache()


RACERS = 6
RACE_DIRECTORIES = 200


def _race_for_cutoffs(barrier, directories, results):
    """One racing process: each fresh cache dir, its own guessed cutoff.

    A measurement takes a random 0-300 us, so the processes reach the
    cache spread across one another's publish; a file that appears
    before its bytes land is read torn on about 1 call in 12.
    """
    rng = np.random.default_rng(os.getpid())
    outcomes = []
    for directory in directories:
        os.environ[CALIBRATION_ENV] = directory
        clear_process_cache()
        guess, delay = float(rng.choice(DENSITY_GRID)), rng.uniform(0.0, 3e-4)

        def measure(rows, cols, **kwargs):
            time.sleep(delay)
            return fake_measure(guess)(rows, cols)

        barrier.wait()  # every process measures, publishes and reads at once
        try:
            outcomes.append(get_cutoff(64, 64, measure=measure))
        except Exception as error:  # reported, not raised, in the parent
            outcomes.append(repr(error))
    results.put(outcomes)


class TestSharedCacheRace:
    def test_racing_processes_adopt_one_cutoff_without_error(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        directories = [str(tmp_path / f"race-{i}") for i in range(RACE_DIRECTORIES)]
        barrier = context.Barrier(RACERS)
        results = context.Queue()
        racers = [
            context.Process(target=_race_for_cutoffs, args=(barrier, directories, results))
            for _ in range(RACERS)
        ]
        for racer in racers:
            racer.start()
        outcomes = [results.get(timeout=120) for _ in racers]
        for racer in racers:
            racer.join(timeout=30)
            assert racer.exitcode == 0
        for index, directory in enumerate(directories):
            with open(os.path.join(directory, "calibration-64x64.json")) as handle:
                published = json.load(handle)["cutoff"]
            assert [outcome[index] for outcome in outcomes] == [published] * RACERS
            # Temp files never outlive the publish.
            assert os.listdir(directory) == ["calibration-64x64.json"]

    @pytest.mark.parametrize("text", ["", '{"rows": 8, "cols": 8, "cut'],
                             ids=["empty", "truncated"])
    def test_torn_cache_file_is_a_named_error(self, cache_dir, text):
        cache_dir.mkdir(parents=True)
        path = cache_dir / "calibration-8x8.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            get_cutoff(8, 8, measure=fake_measure(0.2))


class TestCalibrationTable:
    def test_calibrates_each_shape_once(self, cache_dir):
        calls = []
        table = CalibrationTable()
        table.calibrate_shapes(
            [(8, 16), (4, 2, 2, 2), (8, 16)], measure=fake_measure(0.3, calls)
        )
        assert len(table) == 2
        assert sorted(calls) == [(4, 8), (8, 16)]
        assert table.cutoff_for((4, 2, 2, 2)) == 0.3
        assert table.cutoff_for((99, 99)) is None

    def test_meta_round_trip(self):
        table = CalibrationTable({(8, 16): 0.25, (32, 9): 0.1})
        restored = CalibrationTable.from_meta(table.to_meta())
        assert restored.cutoffs == table.cutoffs
        assert CalibrationTable.from_meta({}) is None
        assert CalibrationTable.from_meta(None) is None

    def test_matrix_shape_reduction(self):
        assert matrix_shape((6, 7)) == (6, 7)
        assert matrix_shape((6, 3, 2, 2)) == (6, 12)
        # NumPy shape entries reduce to the same plain ints.
        reduced = matrix_shape((np.int64(6), np.int64(3), 2, 2))
        assert reduced == (6, 12) and all(type(size) is int for size in reduced)


class _Wrapper(Module):
    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def forward(self, x):
        return self.inner(x)


def make_bound_manager(density=0.05, execution="auto"):
    rng = np.random.default_rng(50)
    layer = Linear(32, 16, rng=rng)
    model = _Wrapper(layer)
    manager = SparsityManager(model, rng=rng)
    manager.init_distribution("uniform", density)
    manager.bind_layers(execution=execution)
    return layer, manager


class TestManagerCalibration:
    def test_calibrate_builds_table_and_overrides_static(self, cache_dir):
        layer, manager = make_bound_manager(density=0.3)
        state = layer.weight_state
        assert manager.route(state) == "dense"  # static cutoff is 0.15
        manager.calibrate(measure=fake_measure(0.5))
        assert manager.route(state) == "csr"  # calibrated cutoff 0.5 > density 0.3

    def test_plain_bind_does_not_measure(self, cache_dir):
        _, manager = make_bound_manager()
        assert manager.calibration is None

    def test_set_execution_with_calibrate_measures(self, cache_dir, monkeypatch):
        import repro.sparse.dispatch as dispatch

        monkeypatch.setattr(dispatch, "measure_crossover", fake_measure(0.2))
        rng = np.random.default_rng(51)
        model = _Wrapper(Linear(32, 16, rng=rng))
        manager = SparsityManager(model, rng=rng)
        manager.init_distribution("uniform", 0.05)
        manager.set_execution("auto", calibrate=True)
        assert manager.calibration is not None
        assert manager.calibration.cutoff_for((16, 32)) == 0.2

    def test_explain_dispatch_reports_source_and_route(self, cache_dir):
        layer, manager = make_bound_manager(density=0.05)
        info = manager.explain_dispatch(next(iter(manager.states)))
        assert info["cutoff_source"] == "static"
        assert info["route"] == "csr"
        assert info["shape"] == (16, 32)
        manager.calibrate(measure=fake_measure(0.01))
        info = manager.explain_dispatch(next(iter(manager.states)))
        assert info["cutoff_source"] == "calibrated"
        assert info["cutoff"] == 0.01
        assert info["route"] == "dense"  # density ~0.05 > cutoff 0.01

    def test_layer_dispatch_info_delegates(self, cache_dir):
        layer, manager = make_bound_manager(density=0.05)
        info = layer.dispatch_info()
        assert info["layer"] == next(iter(manager.states))
        assert info["execution"] == "auto"
        unbound = Linear(4, 4, rng=np.random.default_rng(52))
        assert unbound.dispatch_info() is None
