"""Event-driven spike products: the bits of ``matmul``, fewer columns read.

:meth:`~repro.sparse.storage.CSRPattern.spike_matmul` multiplies rows of
exact 0/1 values by reading only the weight columns of inputs that
fired.  Every product it returns, event-driven or not, must be
``tobytes()``-equal to :meth:`~repro.sparse.storage.CSRPattern.matmul`,
and its rule must fall back to ``matmul`` wherever the event-driven
kernel would be slower.  The small-batch CSR kernel (one one-column
SciPy call per column below 4 columns) is pinned here too.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

from repro.sparse import CSRPattern
from repro.sparse.storage import EVENT_MAX_SHARE, EVENT_MIN_WORK, MATVECS_MIN_COLUMNS

PRECISIONS = ("f32", "f16", "int8")


def frozen_pattern(mask, precision="f32", seed=0, from_arrays=False):
    """A frozen pattern of ``mask`` holding random values at ``precision``."""
    rng = np.random.default_rng(seed)
    pattern = CSRPattern.from_mask(mask)
    values = pattern.gather(rng.standard_normal(mask.shape).astype(np.float32))
    if precision == "f16":
        values = values.astype(np.float16)
    elif precision == "int8":
        values = rng.integers(-127, 128, pattern.nnz).astype(np.int8)
    if from_arrays:
        pattern = CSRPattern.from_arrays(pattern.indices, pattern.indptr, pattern.shape,
                                         pattern.orig_shape, values=values)
    else:
        pattern.values = values
    if precision == "int8":
        pattern.scales = rng.uniform(0.01, 0.1, mask.shape[0]).astype(np.float32)
    return pattern.freeze()


def spike_rows(rng, count, width, rate):
    return (rng.random((count, width)) < rate).astype(np.float32)


def random_mask(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density).astype(np.float32)


class TestEventKernelBits:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        count=st.integers(1, 16),
        rate=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
        precision=st.sampled_from(PRECISIONS),
        from_arrays=st.booleans(),
        empty=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_matmul(self, rows, cols, density, count, rate, precision,
                           from_arrays, empty, seed):
        rng = np.random.default_rng(seed)
        mask = random_mask(rng, rows, cols, density)
        if empty:  # an empty row and an empty column
            mask[rng.integers(rows)] = 0.0
            mask[:, rng.integers(cols)] = 0.0
        pattern = frozen_pattern(mask, precision, seed, from_arrays)
        spikes = spike_rows(rng, count, cols, rate)
        want = pattern.matmul(pattern.values, spikes.T)
        # Forced: the event-driven kernel runs whatever the live share.
        forced = pattern._event_matmul(pattern.values, spikes, 1.0)
        ruled, _ = pattern.spike_matmul(pattern.values, spikes)
        for got in (forced, ruled):
            assert got.dtype == want.dtype == np.float32
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("rate", [0.0, 0.01, 1.0])
    def test_equals_matmul_above_the_floor(self, precision, rate):
        # 512 x 512 at 50%: one row is already past the floor.
        rng = np.random.default_rng(1)
        pattern = frozen_pattern(random_mask(rng, 512, 512, 0.5), precision)
        assert pattern.nnz >= EVENT_MIN_WORK
        for count in (1, 3, 8):
            spikes = spike_rows(rng, count, 512, rate)
            got, event_driven = pattern.spike_matmul(pattern.values, spikes)
            if rate in (0.0, 1.0):  # all silent / all live
                assert event_driven == (rate == 0.0)
            assert got.tobytes() == pattern.matmul(pattern.values, spikes.T).tobytes()

    def test_concurrent_first_calls_publish_one_index(self):
        rng = np.random.default_rng(2)
        pattern = frozen_pattern(random_mask(rng, 300, 200, 0.2))
        spikes = spike_rows(rng, 4, 200, 0.02)
        want = pattern.matmul(pattern.values, spikes.T).tobytes()
        barrier = threading.Barrier(8)
        seen = []

        def first_call():
            barrier.wait(timeout=30.0)
            out = pattern._event_matmul(pattern.values, spikes, 1.0)
            seen.append((pattern._column_index(), out.tobytes()))

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert all(index is seen[0][0] for index, _ in seen)
        assert all(out == want for _, out in seen)
        colptr, row_index, order = seen[0][0]
        assert colptr.dtype == row_index.dtype == order.dtype == np.int32


class TestRule:
    @staticmethod
    def pattern_768(precision="f32"):
        return frozen_pattern(random_mask(np.random.default_rng(3), 768, 768, 0.1), precision)

    @pytest.mark.parametrize("count", [1, 8, 16])
    def test_768_at_10_percent_density_firing_10_percent_takes_matmul(self, count):
        pattern = self.pattern_768()
        spikes = spike_rows(np.random.default_rng(4), count, 768, 0.10)
        got, event_driven = pattern.spike_matmul(pattern.values, spikes)
        assert not event_driven
        assert got.tobytes() == pattern.matmul(pattern.values, spikes.T).tobytes()

    def test_below_the_floor_matmul_runs_before_any_index_work(self):
        pattern = frozen_pattern(random_mask(np.random.default_rng(5), 256, 256, 0.1))
        rows = EVENT_MIN_WORK // pattern.nnz
        assert rows >= 1
        _, event_driven = pattern.spike_matmul(
            pattern.values, np.zeros((rows, 256), dtype=np.float32))
        assert not event_driven
        assert pattern._columns is None  # the input was never looked at

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_silent_rows_skip_the_kernel_and_keep_the_scales(self, precision):
        pattern = self.pattern_768(precision)
        if precision == "int8":  # a nan scale makes its row nan, as in matmul
            pattern.scales = pattern.scales.copy()
            pattern.scales[7] = np.nan
        spikes = np.zeros((8, 768), dtype=np.float32)
        got, event_driven = pattern.spike_matmul(pattern.values, spikes)
        assert event_driven
        assert got.tobytes() == pattern.matmul(pattern.values, spikes.T).tobytes()

    def test_past_the_share_takes_matmul(self):
        pattern = self.pattern_768()
        colptr = pattern._column_index()[0]
        per_column = np.diff(colptr)
        order = np.argsort(per_column, kind="stable")
        spikes = np.zeros((8, 768), dtype=np.float32)
        taken = np.cumsum(per_column[order]) <= EVENT_MAX_SHARE * pattern.nnz
        spikes[0, order[taken]] = 1.0
        assert pattern.spike_matmul(pattern.values, spikes)[1]
        spikes[0, order[taken.sum()]] = 1.0  # one column more: past the share
        assert not pattern.spike_matmul(pattern.values, spikes)[1]

    def test_thawed_foreign_or_non_finite_values_take_matmul(self):
        pattern = self.pattern_768()
        spikes = np.zeros((8, 768), dtype=np.float32)
        foreign = pattern.values.copy()
        assert not pattern.spike_matmul(foreign, spikes)[1]
        pattern.thaw()
        assert not pattern.spike_matmul(pattern.values, spikes)[1]
        pattern.values[3] = np.inf  # inf * 0 is nan: no term may be skipped
        pattern.freeze()
        got, event_driven = pattern.spike_matmul(pattern.values, spikes)
        assert not event_driven
        assert np.isnan(got).any()

    def test_rows_out_of_column_order_take_matmul(self):
        # A from_arrays row listing its columns backwards would be summed
        # in another order by the column index.
        pattern = self.pattern_768()
        indices = pattern.indices.copy()
        first = slice(pattern.indptr[0], pattern.indptr[1])
        indices[first] = indices[first][::-1]
        backwards = CSRPattern.from_arrays(indices, pattern.indptr, pattern.shape,
                                           pattern.orig_shape, values=pattern.values).freeze()
        spikes = np.zeros((8, 768), dtype=np.float32)
        assert not backwards.spike_matmul(backwards.values, spikes)[1]


class TestSmallBatchKernel:
    """Below 4 columns a product runs SciPy's one-column kernel per column."""

    SHAPES = [(16, 24), (64, 64), (256, 64), (32, 768), (300, 7)]

    @pytest.mark.parametrize("columns", [2, 3])
    @pytest.mark.parametrize("kernel", ["csr", "csc"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_per_column_calls_equal_the_multi_column_kernel(self, shape, kernel, columns):
        assert columns < MATVECS_MIN_COLUMNS
        rng = np.random.default_rng(6)
        pattern = frozen_pattern(random_mask(rng, *shape, 0.2))
        rows, cols = shape if kernel == "csr" else shape[::-1]
        dense = rng.standard_normal((cols, columns)).astype(np.float32)
        got = pattern._product(kernel, pattern.indptr, pattern.indices, pattern.values,
                               dense, rows, cols)
        want = np.zeros((rows, columns), dtype=np.float32)
        getattr(_sparsetools, kernel + "_matvecs")(
            rows, cols, columns, pattern.indptr, pattern.indices, pattern.values,
            dense.ravel(), want.ravel())
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
