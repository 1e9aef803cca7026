"""Regression-gate mechanisms of the sweep and serving benchmarks.

Mirrors the kernel-bench gate tests: tier-1 verifies the *mechanism*
(self-baseline passes, doctored baseline fails, CLI exit codes) on a
tiny grid, never the machine-specific timings.
"""

import importlib.util
import json
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


def load_bench(name):
    path = os.path.join(BENCH_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
class TestSweepRegressionGate:
    def tiny_payload(self, bench):
        return bench.run_scaling(
            epochs=1, train_samples=16, worker_counts=[1],
            methods=("dense",), sparsities=(0.9,),
        )

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_sweep_scaling")
        payload = self.tiny_payload(bench)
        assert bench.check_regressions(payload, payload) == []
        doctored = dict(payload)
        doctored["best_queue_speedup"] = payload["best_queue_speedup"] * 100.0
        failures = bench.check_regressions(doctored, payload)
        assert any("best_queue_speedup" in failure for failure in failures)

    def test_divergent_results_always_fail(self):
        bench = load_bench("bench_sweep_scaling")
        payload = self.tiny_payload(bench)
        diverged = dict(payload)
        diverged["all_bit_identical"] = False
        failures = bench.check_regressions(payload, diverged)
        assert any("all_bit_identical" in failure for failure in failures)

    def test_check_cli_exit_codes(self, tmp_path):
        bench = load_bench("bench_sweep_scaling")
        payload = self.tiny_payload(bench)
        argv = ["--epochs", "1", "--train-samples", "16", "--workers", "1",
                "--methods", "dense", "--sparsities", "0.9"]
        good = tmp_path / "baseline.json"
        # A near-zero speedup floor passes on any machine; this
        # exercises the full --check path without timing flakiness.
        relaxed = dict(payload)
        relaxed["best_queue_speedup"] = 1e-6
        good.write_text(json.dumps(relaxed))
        assert bench.main(argv + ["--check", str(good)]) == 0
        bad = tmp_path / "doctored.json"
        doctored = dict(payload)
        doctored["best_queue_speedup"] = 1e6
        bad.write_text(json.dumps(doctored))
        assert bench.main(argv + ["--check", str(bad)]) == 1


@pytest.mark.smoke
class TestServingRegressionGate:
    def tiny_payload(self, bench):
        return bench.run_comparison(
            width=48, batch_sizes=(1, 2), repeats=1, include_server=False,
        )

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_serving")
        payload = self.tiny_payload(bench)
        assert bench.check_regressions(payload, payload) == []
        doctored = dict(payload)
        doctored["csr_p50_speedup_at_90"] = (
            payload["csr_p50_speedup_at_90"] * 100.0
        )
        failures = bench.check_regressions(doctored, payload)
        assert any("csr_p50_speedup_at_90" in failure for failure in failures)

    def test_check_cli_exit_codes(self, tmp_path):
        bench = load_bench("bench_serving")
        payload = self.tiny_payload(bench)
        argv = ["--repeats", "1", "--width", "48", "--no-server"]
        good = tmp_path / "baseline.json"
        relaxed = dict(payload)
        for metric in bench.HEADLINE_METRICS:
            relaxed[metric] = 1e-6
        good.write_text(json.dumps(relaxed))
        assert bench.main(argv + ["--check", str(good)]) == 0
        bad = tmp_path / "doctored.json"
        doctored = dict(payload)
        doctored["compact_p50_speedup_at_50"] = 1e6
        bad.write_text(json.dumps(doctored))
        assert bench.main(argv + ["--check", str(bad)]) == 1


@pytest.mark.smoke
class TestStreamingRegressionGate:
    TINY_ARGS = dict(streams=2, channels=8, events=24, window=4, hidden=16)

    def tiny_payload(self, bench):
        return bench.run_streaming(repeats=1, **self.TINY_ARGS)

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_streaming")
        payload = self.tiny_payload(bench)
        assert payload["all_bit_identical"]
        assert bench.check_regressions(payload, payload) == []
        doctored = dict(payload)
        doctored["csr_event_speedup"] = payload["csr_event_speedup"] * 100.0
        failures = bench.check_regressions(doctored, payload)
        assert any("csr_event_speedup" in failure for failure in failures)

    def test_divergent_results_always_fail(self):
        bench = load_bench("bench_streaming")
        payload = self.tiny_payload(bench)
        diverged = dict(payload)
        diverged["all_bit_identical"] = False
        failures = bench.check_regressions(payload, diverged)
        assert any("all_bit_identical" in failure for failure in failures)

    def test_check_cli_exit_codes(self, tmp_path):
        bench = load_bench("bench_streaming")
        payload = self.tiny_payload(bench)
        argv = ["--repeats", "1", "--streams", "2", "--channels", "8",
                "--events", "24", "--window", "4", "--hidden", "16"]
        good = tmp_path / "baseline.json"
        # Near-zero ratio floors pass on any machine; this exercises
        # the full --check path without timing flakiness.
        relaxed = dict(payload)
        for metric in bench.HEADLINE_METRICS:
            relaxed[metric] = 1e-6
        good.write_text(json.dumps(relaxed))
        assert bench.main(argv + ["--check", str(good)]) == 0
        bad = tmp_path / "doctored.json"
        doctored = dict(payload)
        doctored["tumbling_vs_sliding_speedup"] = 1e6
        bad.write_text(json.dumps(doctored))
        assert bench.main(argv + ["--check", str(bad)]) == 1


@pytest.mark.smoke
class TestCheckAllEntryPoint:
    def test_runs_selected_gate_against_relaxed_and_doctored_baselines(
        self, tmp_path
    ):
        check_all = load_bench("check_all")
        bench = load_bench("bench_streaming")
        payload = bench.run_streaming(
            streams=2, channels=8, events=24, window=4, hidden=16, repeats=1,
        )
        relaxed = dict(payload)
        for metric in bench.HEADLINE_METRICS:
            relaxed[metric] = 1e-6
        (tmp_path / "BENCH_streaming.json").write_text(json.dumps(relaxed))
        fast = ["--repeats", "1", "--streams", "2", "--channels", "8",
                "--events", "24", "--window", "4", "--hidden", "16"]
        check_all.GATES["streaming"] = (
            "bench_streaming", "BENCH_streaming.json", fast,
        )
        argv = ["--only", "streaming", "--baseline-dir", str(tmp_path)]
        assert check_all.main(argv) == 0
        doctored = dict(payload)
        doctored["csr_event_speedup"] = 1e6
        (tmp_path / "BENCH_streaming.json").write_text(json.dumps(doctored))
        assert check_all.main(argv) == 1

    def test_missing_baseline_fails(self, tmp_path):
        check_all = load_bench("check_all")
        argv = ["--only", "streaming", "--baseline-dir", str(tmp_path)]
        assert check_all.main(argv) == 1

    def test_registry_covers_all_five_gates(self):
        check_all = load_bench("check_all")
        assert set(check_all.GATES) == {
            "kernels", "sweep", "serving", "streaming", "packaging",
        }
        for module_name, baseline, _ in check_all.GATES.values():
            assert os.path.exists(
                os.path.join(BENCH_DIR, module_name + ".py")
            )
            assert os.path.exists(
                os.path.join(BENCH_DIR, "..", baseline)
            )

    def test_json_summary(self, tmp_path):
        check_all = load_bench("check_all")
        bench = load_bench("bench_packaging")
        payload = bench.run_comparison(repeats=1, load_repeats=1, width=48)
        relaxed = dict(payload)
        for metric in bench.HEADLINE_METRICS:
            relaxed[metric] = 1e-6
        (tmp_path / "BENCH_packaging.json").write_text(json.dumps(relaxed))
        check_all.GATES["packaging"] = (
            "bench_packaging", "BENCH_packaging.json",
            ["--repeats", "1", "--load-repeats", "1", "--width", "48"],
        )
        summary_path = tmp_path / "summary.json"
        argv = ["--only", "packaging", "--baseline-dir", str(tmp_path),
                "--json", str(summary_path)]
        assert check_all.main(argv) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["ok"] is True
        assert summary["failed"] == []
        assert summary["gates"]["packaging"]["exit_code"] == 0
        # a missing baseline shows up as a machine-readable failure too
        os.remove(tmp_path / "BENCH_packaging.json")
        assert check_all.main(argv) == 1
        summary = json.loads(summary_path.read_text())
        assert summary["ok"] is False
        assert summary["failed"] == ["packaging"]


@pytest.mark.smoke
class TestPackagingRegressionGate:
    def tiny_payload(self, bench):
        return bench.run_comparison(repeats=1, load_repeats=1, width=48)

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_packaging")
        payload = self.tiny_payload(bench)
        assert bench.check_regressions(payload, payload) == []
        doctored = dict(payload)
        doctored["artifact_size_ratio"] = payload["artifact_size_ratio"] * 100.0
        failures = bench.check_regressions(doctored, payload)
        assert any("artifact_size_ratio" in failure for failure in failures)

    def test_stored_precision_runtime_is_gated(self):
        bench = load_bench("bench_packaging")
        payload = self.tiny_payload(bench)
        cells = payload["cells"]
        assert payload["int8_stored_throughput_ratio"] == pytest.approx(
            cells["int8_runtime_int8"]["throughput_rps"]
            / cells["int8_runtime_f32"]["throughput_rps"]
        )
        for label in bench.ERROR_BOUND_CELLS:
            assert payload["max_abs_error"][label] <= bench.INT8_ERROR_BOUND
        doctored = dict(payload)
        doctored["int8_stored_throughput_ratio"] *= 100.0
        failures = bench.check_regressions(doctored, payload)
        assert any("int8_stored_throughput_ratio" in f for f in failures)

    def test_check_cli_exit_codes(self, tmp_path):
        bench = load_bench("bench_packaging")
        payload = self.tiny_payload(bench)
        argv = ["--repeats", "1", "--load-repeats", "1", "--width", "48"]
        good = tmp_path / "baseline.json"
        relaxed = dict(payload)
        for metric in bench.HEADLINE_METRICS:
            relaxed[metric] = 1e-6
        good.write_text(json.dumps(relaxed))
        assert bench.main(argv + ["--check", str(good)]) == 0
        bad = tmp_path / "doctored.json"
        doctored = dict(payload)
        doctored["cold_load_speedup"] = 1e6
        bad.write_text(json.dumps(doctored))
        assert bench.main(argv + ["--check", str(bad)]) == 1
