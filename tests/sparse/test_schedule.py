"""Sparsity ramp (Eq. 4) and death-rate schedules (Eq. 5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    CosineDeathSchedule,
    LayerwiseSparsityRamp,
    SparsityRamp,
)


class TestSparsityRamp:
    def test_endpoints(self):
        ramp = SparsityRamp(0.5, 0.9, t_start=0, num_rounds=10, update_frequency=100)
        assert ramp.sparsity_at(0) == 0.5
        assert ramp.sparsity_at(1000) == 0.9

    def test_matches_equation4(self):
        theta_i, theta_f = 0.6, 0.95
        t0, n, dt = 0, 20, 50
        ramp = SparsityRamp(theta_i, theta_f, t_start=t0, num_rounds=n, update_frequency=dt)
        for t in (50, 250, 500, 900):
            expected = theta_f + (theta_i - theta_f) * (1 - (t - t0) / (n * dt)) ** 3
            assert np.isclose(ramp.sparsity_at(t), expected)

    def test_monotonically_nondecreasing(self):
        ramp = SparsityRamp(0.5, 0.99, t_start=0, num_rounds=30, update_frequency=10)
        values = [ramp.sparsity_at(t) for t in range(0, 400, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_clamps_outside_window(self):
        ramp = SparsityRamp(0.5, 0.9, t_start=100, num_rounds=5, update_frequency=10)
        assert ramp.sparsity_at(0) == 0.5
        assert ramp.sparsity_at(10_000) == 0.9

    def test_t_end(self):
        ramp = SparsityRamp(0.5, 0.9, t_start=10, num_rounds=5, update_frequency=20)
        assert ramp.t_end == 110

    def test_power_knob(self):
        cubic = SparsityRamp(0.0, 0.9, 0, 10, 10, power=3.0)
        linear = SparsityRamp(0.0, 0.9, 0, 10, 10, power=1.0)
        # Cubic ramps faster initially (sparsifies sooner).
        assert cubic.sparsity_at(20) > linear.sparsity_at(20)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparsityRamp(0.9, 0.5, 0, 10, 10)  # initial > final
        with pytest.raises(ValueError):
            SparsityRamp(0.5, 1.0, 0, 10, 10)  # final not < 1
        with pytest.raises(ValueError):
            SparsityRamp(0.5, 0.9, 0, 0, 10)
        with pytest.raises(ValueError):
            SparsityRamp(0.5, 0.9, 0, 10, 0)

    def test_callable(self):
        ramp = SparsityRamp(0.5, 0.9, 0, 10, 10)
        assert ramp(0) == ramp.sparsity_at(0)


class TestLayerwiseRamp:
    def test_per_layer_endpoints(self):
        initial = {"a": 0.4, "b": 0.6}
        final = {"a": 0.8, "b": 0.95}
        ramp = LayerwiseSparsityRamp(initial, final, 0, 10, 10)
        start = ramp.sparsity_at(0)
        end = ramp.sparsity_at(100)
        assert start == initial
        assert end == final

    def test_mismatched_layers_raise(self):
        with pytest.raises(ValueError):
            LayerwiseSparsityRamp({"a": 0.5}, {"b": 0.9}, 0, 10, 10)

    def test_initial_above_final_is_clipped(self):
        # ERK capping can make a layer's initial sparsity exceed its final;
        # the ramp clips so Eq. 4 stays monotone.
        ramp = LayerwiseSparsityRamp({"a": 0.9}, {"a": 0.8}, 0, 10, 10)
        assert ramp.sparsity_at(0)["a"] <= 0.8

    def test_getitem(self):
        ramp = LayerwiseSparsityRamp({"a": 0.5}, {"a": 0.9}, 0, 10, 10)
        assert isinstance(ramp["a"], SparsityRamp)


class TestCosineDeathSchedule:
    def test_endpoints(self):
        schedule = CosineDeathSchedule(0.5, 0.05, num_rounds=10, update_frequency=100)
        assert schedule.rate_at(0) == 0.5
        assert schedule.rate_at(1000) == pytest.approx(0.05)

    def test_matches_equation5(self):
        d0, dmin, n, dt = 0.5, 0.05, 20, 50
        schedule = CosineDeathSchedule(d0, dmin, num_rounds=n, update_frequency=dt)
        for t in (50, 300, 700):
            expected = dmin + 0.5 * (d0 - dmin) * (1 + math.cos(math.pi * t / (n * dt)))
            assert np.isclose(schedule.rate_at(t), expected)

    def test_monotonically_decreasing(self):
        schedule = CosineDeathSchedule(0.5, 0.0, num_rounds=20, update_frequency=10)
        values = [schedule.rate_at(t) for t in range(0, 220, 3)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_clamps_beyond_horizon(self):
        schedule = CosineDeathSchedule(0.5, 0.1, num_rounds=5, update_frequency=10)
        assert schedule.rate_at(10_000) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineDeathSchedule(0.05, 0.5, 10, 10)  # min > initial


@settings(max_examples=50, deadline=None)
@given(
    theta_i=st.floats(min_value=0.0, max_value=0.9),
    gap=st.floats(min_value=0.0, max_value=0.099),
    t=st.integers(min_value=0, max_value=10_000),
)
def test_ramp_bounded_by_endpoints(theta_i, gap, t):
    theta_f = min(0.999, theta_i + gap)
    ramp = SparsityRamp(theta_i, theta_f, 0, 10, 50)
    value = ramp.sparsity_at(t)
    assert theta_i - 1e-9 <= value <= theta_f + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    d0=st.floats(min_value=0.01, max_value=1.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    t=st.integers(min_value=0, max_value=10_000),
)
def test_death_rate_bounded(d0, frac, t):
    dmin = d0 * frac
    schedule = CosineDeathSchedule(d0, dmin, 10, 50)
    value = schedule.rate_at(t)
    assert dmin - 1e-9 <= value <= d0 + 1e-9
