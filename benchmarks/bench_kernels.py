"""Micro-benchmarks of the compute kernels (supplementary).

Two modes:

* pytest-benchmark timings (many rounds) of the operations that
  dominate NDSNN training: convolution forward/backward, the LIF
  temporal loop, mask enforcement and a drop-and-grow round;
* a dense-vs-CSR comparison mode emitting ``BENCH_kernels.json``::

      PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_kernels.json

  For each (shape, sparsity) cell it times the dense masked matmul
  ``(W*mask) @ X`` against the CSR fast path, both kernel-only (pattern
  and values resident, the steady-state write-through case) and
  including a per-call value refresh (the historical CSR tax), plus the
  transposed product used by the input gradient, the standalone refresh
  cost amortized over a training step, direct sparse-filter convolution
  cells, the routing an ``--execution auto`` run would take per
  cell under measured calibration, and a report-only table of spike
  products: ``matmul`` against the event-driven kernel per firing rate
  (no headline, no gate);
* a regression gate over the committed numbers::

      PYTHONPATH=src python benchmarks/bench_kernels.py --check BENCH_kernels.json

  re-times the grid and exits non-zero if any headline metric regressed
  by more than 15% (tier-1 runs the gate mechanism via a smoke test).
"""

import os
import sys

import numpy as np
import pytest

from repro.optim import SGD
from repro.snn import LIFNeuron, reset_net
from repro.snn.models import SpikingConvNet
from repro.sparse import NDSNN, CSRPattern, SparsityManager
from repro.tensor import Tensor, cross_entropy, masked_conv2d

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if BENCH_DIR not in sys.path:  # spec loaders do not put it there
    sys.path.insert(0, BENCH_DIR)
import _gate  # noqa: E402


@pytest.fixture(scope="module")
def conv_inputs():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 16, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((32, 16, 3, 3)).astype(np.float32) * 0.1, requires_grad=True)
    return x, w


def test_conv2d_forward(benchmark, conv_inputs):
    x, w = conv_inputs
    benchmark(lambda: masked_conv2d(x, w, None, padding=1, state=None))


def test_conv2d_forward_backward(benchmark, conv_inputs):
    x, w = conv_inputs

    def run():
        x.zero_grad()
        w.zero_grad()
        (masked_conv2d(x, w, None, padding=1, state=None) ** 2).sum().backward()

    benchmark(run)


def test_lif_temporal_loop(benchmark):
    rng = np.random.default_rng(1)
    neuron = LIFNeuron()
    frames = [Tensor(rng.standard_normal((16, 64)).astype(np.float32)) for _ in range(5)]

    def run():
        neuron.reset_state()
        for frame in frames:
            neuron(frame)

    benchmark(run)


def test_mask_enforcement(benchmark):
    model = SpikingConvNet(
        num_classes=10, image_size=16, channels=(32, 64), rng=np.random.default_rng(2)
    )
    masks = SparsityManager(model, rng=np.random.default_rng(3))
    masks.init_random({name: 0.1 for name in masks.masks})
    benchmark(masks.apply_masks)


def test_topology_update_round(benchmark):
    model = SpikingConvNet(
        num_classes=10, image_size=16, channels=(32, 64),
        timesteps=2, rng=np.random.default_rng(4),
    )
    method = NDSNN(
        initial_sparsity=0.5, final_sparsity=0.95,
        total_iterations=1000, update_frequency=10,
        rng=np.random.default_rng(5),
    )
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    method.bind(model, optimizer)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
    y = rng.integers(0, 10, 4)
    loss = cross_entropy(model(x), y)
    loss.backward()
    iteration = {"value": 10}

    def run():
        method.update_topology(iteration["value"])
        iteration["value"] = min(iteration["value"] + 10, 990)

    benchmark(run)


def test_spiking_forward_pass(benchmark):
    model = SpikingConvNet(
        num_classes=10, image_size=16, channels=(16, 32),
        timesteps=4, rng=np.random.default_rng(7),
    )
    x = Tensor(np.random.default_rng(8).standard_normal((8, 3, 16, 16)).astype(np.float32))
    benchmark(lambda: model(x))


# ----------------------------------------------------------------------
# Dense-vs-CSR comparison mode
# ----------------------------------------------------------------------

COMPARISON_SHAPES = ((512, 512, 16), (1024, 1024, 16))
COMPARISON_SPARSITIES = (0.5, 0.9, 0.99)
#: Direct sparse-filter convolution cells: (filters, channels, kernel,
#: height, width, batch), padded same, stride 1.
CONV_SHAPES = ((32, 16, 3, 16, 16, 8),)
#: Report-only spike-product cells: (rows, cols) at 90% sparsity, the
#: operand row counts and the input firing rates.
SPIKE_SHAPES = ((768, 768), (256, 256))
SPIKE_ROWS = (1, 8, 16)
SPIKE_RATES = (0.0, 0.005, 0.02, 0.05, 0.10, 0.20)
#: SNN timesteps over which one optimizer-step refresh amortizes (the
#: reproduction's default temporal window).
DEFAULT_TIMESTEPS = 5
#: Headline speedup metrics the regression gate compares (higher is
#: better).
HEADLINE_METRICS = (
    "best_speedup_at_90",
    "best_speedup_with_refresh_at_90",
    "best_speedup_train_step_at_90",
    "conv_speedup_at_90",
    "min_auto_speedup",
)
#: The refresh overhead is gated lower-is-better; its ceiling never
#: drops below 0.10 (the exit-state budget), so sub-budget jitter never
#: trips the gate.
GATE = _gate.Gate(HEADLINE_METRICS, ceilings={"refresh_overhead_at_90": 0.10})


def _mean_seconds(fns, repeats):
    """Mean per-call seconds of each callable, timed interleaved."""
    return [float(np.mean(times))
            for times in _gate.time_interleaved(fns, repeats)]


def compare_masked_matmul(
    rows, cols, batch, sparsity, repeats=50, seed=0, timesteps=DEFAULT_TIMESTEPS
):
    """One comparison cell: dense masked matmul vs the CSR fast path.

    ``timesteps`` sets the amortization window for the write-through
    refresh: a training step gathers active values once and reuses them
    for ``timesteps`` forward products plus ``timesteps`` transposed
    (input-gradient) products.
    """
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((rows, cols)).astype(np.float32)
    keep = max(1, int(round((1.0 - sparsity) * rows * cols)))
    mask = np.zeros(rows * cols, dtype=np.float32)
    mask[rng.choice(rows * cols, size=keep, replace=False)] = 1.0
    mask = mask.reshape(rows, cols)
    weight *= mask  # trainer invariant: masked weights are exactly zero
    x = rng.standard_normal((cols, batch)).astype(np.float32)
    grad = rng.standard_normal((rows, batch)).astype(np.float32)

    pattern = CSRPattern.from_mask(mask)
    data = pattern.gather(weight)

    dense_s, csr_kernel_s, csr_refresh_s, dense_t_s, csr_t_s, refresh_s = (
        _mean_seconds([
            lambda: (weight * mask) @ x,
            lambda: pattern.matmul(data, x),
            lambda: pattern.matmul(pattern.gather(weight), x),
            lambda: (weight * mask).T @ grad,
            lambda: pattern.t_matmul(data, grad),
            lambda: pattern.gather(weight),
        ], repeats)
    )

    # One training step at T timesteps: dense pays T masked products each
    # direction; write-through CSR pays the same products sparse plus a
    # single value refresh.
    step_csr_s = timesteps * (csr_kernel_s + csr_t_s) + refresh_s
    step_dense_s = timesteps * (dense_s + dense_t_s)

    # Correctness guard: a fast wrong kernel is not a fast kernel.
    reference = (weight * mask) @ x
    max_err = float(np.abs(pattern.matmul(data, x) - reference).max())
    tolerance = 1e-4 * max(1.0, float(np.abs(reference).max()))
    if max_err > tolerance:
        raise AssertionError(
            f"CSR kernel diverges from dense reference: max abs error "
            f"{max_err:.3e} > {tolerance:.3e} at sparsity {sparsity}"
        )
    return {
        "rows": rows,
        "cols": cols,
        "batch": batch,
        "sparsity": sparsity,
        "timesteps": timesteps,
        "dense_us": dense_s * 1e6,
        "csr_kernel_us": csr_kernel_s * 1e6,
        "csr_with_refresh_us": csr_refresh_s * 1e6,
        "dense_t_us": dense_t_s * 1e6,
        "csr_t_us": csr_t_s * 1e6,
        "refresh_us": refresh_s * 1e6,
        "refresh_overhead": refresh_s / (timesteps * (csr_kernel_s + csr_t_s)),
        "speedup_kernel": dense_s / csr_kernel_s,
        "speedup_with_refresh": dense_s / csr_refresh_s,
        "speedup_transposed": dense_t_s / csr_t_s,
        "speedup_train_step": step_dense_s / step_csr_s,
        "max_abs_error": max_err,
    }


class _BenchState:
    """Minimal MaskedParameter stand-in forcing the CSR conv route."""

    class _Manager:
        dispatch_counts = {"dense": 0, "csr": 0}

        @staticmethod
        def route(state):
            return "csr"

    def __init__(self, mask, weight):
        self.mask = mask
        self.manager = self._Manager()
        self._pattern = CSRPattern.from_mask(mask)
        self._pattern.gather(weight)

    def csr_pattern(self):
        return self._pattern

    def csr_values(self):
        return self._pattern.values


def compare_masked_conv(filters, channels, kernel, height, width, batch,
                        sparsity, repeats=20, seed=0):
    """One conv cell: the dense vs the CSR route of ``masked_conv2d``."""
    rng = np.random.default_rng(seed)
    shape = (filters, channels, kernel, kernel)
    weight = rng.standard_normal(shape).astype(np.float32) * 0.1
    total = int(np.prod(shape))
    keep = max(1, int(round((1.0 - sparsity) * total)))
    mask = np.zeros(total, dtype=np.float32)
    mask[rng.choice(total, size=keep, replace=False)] = 1.0
    mask = mask.reshape(shape)
    weight *= mask
    x = Tensor(rng.standard_normal((batch, channels, height, width)).astype(np.float32))
    weight_t = Tensor(weight)
    state = _BenchState(mask, weight)
    padding = kernel // 2

    dense_s, csr_s = _mean_seconds([
        lambda: masked_conv2d(x, weight_t, None, padding=padding, state=None),
        lambda: masked_conv2d(x, weight_t, None, padding=padding, state=state),
    ], repeats)

    reference = masked_conv2d(x, weight_t, None, padding=padding, state=None).data
    produced = masked_conv2d(x, weight_t, None, padding=padding, state=state).data
    max_err = float(np.abs(produced - reference).max())
    tolerance = 1e-4 * max(1.0, float(np.abs(reference).max()))
    if max_err > tolerance:
        raise AssertionError(
            f"sparse conv kernel diverges from dense reference: max abs "
            f"error {max_err:.3e} > {tolerance:.3e} at sparsity {sparsity}"
        )
    return {
        "filters": filters,
        "channels": channels,
        "kernel": kernel,
        "height": height,
        "width": width,
        "batch": batch,
        "sparsity": sparsity,
        "dense_us": dense_s * 1e6,
        "csr_us": csr_s * 1e6,
        "speedup": dense_s / csr_s,
        "max_abs_error": max_err,
    }


def compare_spike_products(rows, cols, batch, rate, repeats=50, seed=0):
    """One report-only cell: ``matmul`` vs the event-driven kernel on
    ``batch`` rows of spikes firing at ``rate``, and what the rule picks.

    The event-driven column always runs the kernel (whatever the live
    share), so the table shows where it loses; ``rule`` is the kernel
    :meth:`~repro.sparse.storage.CSRPattern.spike_matmul` takes.
    """
    rng = np.random.default_rng(seed)
    keep = max(1, int(round(0.1 * rows * cols)))
    mask = np.zeros(rows * cols, dtype=np.float32)
    mask[rng.choice(rows * cols, size=keep, replace=False)] = 1.0
    pattern = CSRPattern.from_mask(mask.reshape(rows, cols))
    pattern.gather(rng.standard_normal((rows, cols)).astype(np.float32))
    values = pattern.freeze().values
    spikes = (rng.random((batch, cols)) < rate).astype(np.float32)
    want = pattern.matmul(values, spikes.T)
    if pattern._event_matmul(values, spikes, 1.0).tobytes() != want.tobytes():
        raise AssertionError(f"event-driven kernel diverges from matmul at {rows}x{cols}")
    matmul_s, event_s = _mean_seconds([
        lambda: pattern.matmul(values, spikes.T),
        lambda: pattern._event_matmul(values, spikes, 1.0),
    ], repeats)
    colptr = pattern._column_index()[0]
    live = spikes.any(axis=0)
    return {
        "rows": rows,
        "cols": cols,
        "batch": batch,
        "firing_rate": rate,
        "live_share": float(np.diff(colptr)[live].sum() / pattern.nnz),
        "matmul_us": matmul_s * 1e6,
        "event_us": event_s * 1e6,
        "speedup": matmul_s / event_s,
        "rule": "event" if pattern.spike_matmul(values, spikes)[1] else "matmul",
    }


def auto_route_cells(matmul_cells):
    """Per-cell routing an ``--execution auto`` run would take.

    Uses the same measured calibration machinery as the training
    runners (:func:`repro.sparse.dispatch.get_cutoff`).  A cell routed
    dense has speedup exactly 1.0 by construction — auto never pays for
    a losing CSR dispatch.
    """
    from repro.sparse.dispatch import get_cutoff

    cells = []
    for cell in matmul_cells:
        density = 1.0 - cell["sparsity"]
        cutoff = get_cutoff(cell["rows"], cell["cols"])
        route = "csr" if density <= cutoff else "dense"
        cells.append(
            {
                "rows": cell["rows"],
                "cols": cell["cols"],
                "sparsity": cell["sparsity"],
                "density": density,
                "cutoff": cutoff,
                "route": route,
                "speedup_auto": cell["speedup_train_step"] if route == "csr" else 1.0,
            }
        )
    return cells


def run_comparison(
    shapes=COMPARISON_SHAPES,
    sparsities=COMPARISON_SPARSITIES,
    conv_shapes=CONV_SHAPES,
    repeats=50,
    timesteps=DEFAULT_TIMESTEPS,
    spike_shapes=SPIKE_SHAPES,
):
    """Full dense-vs-CSR grid; returns the BENCH_kernels payload."""
    cells = []
    for rows, cols, batch in shapes:
        for sparsity in sparsities:
            cells.append(
                compare_masked_matmul(
                    rows, cols, batch, sparsity, repeats=repeats, timesteps=timesteps
                )
            )
    conv_cells = []
    for filters, channels, kernel, height, width, batch in conv_shapes:
        for sparsity in sparsities:
            conv_cells.append(
                compare_masked_conv(
                    filters, channels, kernel, height, width, batch,
                    sparsity, repeats=max(1, repeats // 2),
                )
            )
    auto_cells = auto_route_cells(cells)
    spike_cells = [
        compare_spike_products(rows, cols, batch, rate, repeats=repeats)
        for rows, cols in spike_shapes for batch in SPIKE_ROWS for rate in SPIKE_RATES
    ]
    at_90 = [c for c in cells if c["sparsity"] == 0.9]
    conv_at_90 = [c for c in conv_cells if c["sparsity"] == 0.9]
    return {
        "bench": "dense_masked_matmul_vs_csr",
        "repeats": repeats,
        "timesteps": timesteps,
        "cells": cells,
        "conv_cells": conv_cells,
        "auto_cells": auto_cells,
        "spike_cells": spike_cells,
        "best_speedup_at_90": max(c["speedup_kernel"] for c in at_90),
        "best_speedup_with_refresh_at_90": max(
            c["speedup_with_refresh"] for c in at_90
        ),
        "best_speedup_train_step_at_90": max(c["speedup_train_step"] for c in at_90),
        "refresh_overhead_at_90": max(c["refresh_overhead"] for c in at_90),
        "conv_speedup_at_90": max(c["speedup"] for c in conv_at_90),
        "min_auto_speedup": min(c["speedup_auto"] for c in auto_cells),
    }


def main(argv=None):
    parser = _gate.parser("dense-vs-CSR kernel comparison",
                          "BENCH_kernels.json", repeats=50)
    parser.add_argument("--timesteps", type=int, default=DEFAULT_TIMESTEPS)
    args = parser.parse_args(argv)
    payload = run_comparison(repeats=args.repeats, timesteps=args.timesteps)
    for cell in payload["cells"]:
        print(
            f"{cell['rows']}x{cell['cols']} b={cell['batch']} "
            f"sparsity={cell['sparsity']:.2f}: dense {cell['dense_us']:8.1f}us  "
            f"csr {cell['csr_kernel_us']:8.1f}us ({cell['speedup_kernel']:.2f}x, "
            f"{cell['speedup_train_step']:.2f}x/step, refresh "
            f"{100 * cell['refresh_overhead']:.1f}%)"
        )
    for cell in payload["conv_cells"]:
        print(
            f"conv {cell['filters']}x{cell['channels']}x{cell['kernel']} "
            f"sparsity={cell['sparsity']:.2f}: dense {cell['dense_us']:8.1f}us  "
            f"csr {cell['csr_us']:8.1f}us ({cell['speedup']:.2f}x)"
        )
    for cell in payload["auto_cells"]:
        print(
            f"auto {cell['rows']}x{cell['cols']} density={cell['density']:.2f} "
            f"cutoff={cell['cutoff']:.2f} -> {cell['route']} "
            f"({cell['speedup_auto']:.2f}x)"
        )
    for cell in payload["spike_cells"]:
        print(
            f"spikes {cell['rows']}x{cell['cols']} rows={cell['batch']:2d} "
            f"firing={100 * cell['firing_rate']:4.1f}% live={cell['live_share']:.3f}: "
            f"matmul {cell['matmul_us']:7.1f}us  event {cell['event_us']:7.1f}us "
            f"({cell['speedup']:.2f}x) -> {cell['rule']}"
        )
    print(f"best speedup at 90% sparsity: {payload['best_speedup_at_90']:.2f}x")
    print(f"refresh overhead at 90% sparsity: {100 * payload['refresh_overhead_at_90']:.1f}%")
    return _gate.finish(args, payload, GATE)


if __name__ == "__main__":
    raise SystemExit(main())
