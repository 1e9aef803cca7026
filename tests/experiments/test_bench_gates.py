"""Regression-gate mechanisms of the ``--check`` benchmarks.

Mirrors the kernel-bench gate tests: tier-1 verifies the *mechanism*
(the shared check's rules, self-baseline passes, doctored baseline
fails, CLI exit codes, standalone runs) on a tiny grid, never the
machine-specific timings.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
SRC_DIR = os.path.abspath(os.path.join(BENCH_DIR, "..", "src"))


def load_bench(name):
    path = os.path.join(BENCH_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(script, args, cwd):
    """Run a benchmarks/ script in a fresh process from ``cwd``."""
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, script), *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.smoke
class TestSharedCheck:
    """Every rule of ``_gate.Gate.check``, on hand-made payloads."""

    GATE_ARGS = dict(
        headlines=("speedup",),
        ceilings={"overhead": 0.10},
        divergence="results diverged",
    )

    @pytest.mark.parametrize("baseline, payload, expected", [
        # higher-is-better floor: base * (1 - 0.15)
        ({"speedup": 2.0}, {"speedup": 1.71}, []),
        ({"speedup": 2.0}, {"speedup": 1.69},
         ["speedup: 1.690 < 1.700 (baseline 2.000 - 15%)"]),
        # lower-is-better ceiling: max(base * (1 + 0.15), 0.10)
        ({"overhead": 0.20}, {"overhead": 0.22}, []),
        ({"overhead": 0.20}, {"overhead": 0.24},
         ["overhead: 0.240 > 0.230 (baseline 0.200 + 15%)"]),
        # sub-0.10 jitter passes the ceiling even far above the baseline
        ({"overhead": 0.02}, {"overhead": 0.09}, []),
        ({"overhead": 0.02}, {"overhead": 0.11},
         ["overhead: 0.110 > 0.100 (baseline 0.020 + 15%)"]),
        # a headline missing from the baseline is skipped
        ({}, {"speedup": 0.0, "overhead": 1e6}, []),
        # a false invariant fails whatever the baseline says
        ({}, {"all_bit_identical": False},
         ["all_bit_identical: results diverged"]),
    ], ids=["floor-pass", "floor-fail", "ceiling-pass", "ceiling-fail",
            "ceiling-jitter-floor", "ceiling-floor-fail", "missing-key",
            "invariant"])
    def test_rule(self, baseline, payload, expected):
        gate = load_bench("_gate")
        payload = dict({"all_bit_identical": True}, **payload)
        assert gate.Gate(**self.GATE_ARGS).check(baseline, payload) == expected

    @pytest.mark.parametrize("bench_name, flag", [
        ("bench_kernels", "--repeats"),
        ("bench_serving", "--repeats"),
        ("bench_packaging", "--repeats"),
        ("bench_packaging", "--load-repeats"),
        ("bench_streaming", "--repeats"),
    ])
    def test_repeats_below_one_is_a_usage_error(self, bench_name, flag, capsys):
        bench = load_bench(bench_name)
        with pytest.raises(SystemExit) as raised:
            bench.main([flag, "0"])
        assert raised.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


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
        assert bench.GATE.check(payload, payload) == []
        doctored = dict(payload)
        doctored["best_queue_speedup"] = payload["best_queue_speedup"] * 100.0
        failures = bench.GATE.check(doctored, payload)
        assert any("best_queue_speedup" in failure for failure in failures)

    def test_divergent_results_always_fail(self):
        bench = load_bench("bench_sweep_scaling")
        payload = self.tiny_payload(bench)
        diverged = dict(payload)
        diverged["all_bit_identical"] = False
        failures = bench.GATE.check(payload, diverged)
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

    def test_runs_standalone_in_a_fresh_process(self, tmp_path):
        out = tmp_path / "BENCH_sweep.json"
        completed = run_script("bench_sweep_scaling.py", [
            "--epochs", "1", "--train-samples", "16", "--workers", "1",
            "--methods", "dense", "--sparsities", "0.9", "--out", str(out),
        ], cwd=tmp_path)
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(out.read_text())
        assert payload["all_bit_identical"] is True
        assert payload["cpu_count"] == os.cpu_count()


@pytest.mark.smoke
class TestServingRegressionGate:
    def tiny_payload(self, bench):
        return bench.run_comparison(
            width=48, batch_sizes=(1, 2), repeats=1, include_server=False,
        )

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_serving")
        payload = self.tiny_payload(bench)
        assert bench.GATE.check(payload, payload) == []
        doctored = dict(payload)
        doctored["csr_p50_speedup_at_90"] = (
            payload["csr_p50_speedup_at_90"] * 100.0
        )
        failures = bench.GATE.check(doctored, payload)
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

    def test_runs_standalone_in_a_fresh_process(self, tmp_path):
        out = tmp_path / "BENCH_serving.json"
        completed = run_script("bench_serving.py", [
            "--repeats", "1", "--width", "48", "--no-server", "--out", str(out),
        ], cwd=tmp_path)
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(out.read_text())
        for metric in ("csr_p50_speedup_at_90", "compact_p50_speedup_at_50",
                       "batch_throughput_gain"):
            assert payload[metric] > 0.0
        assert payload["cpu_count"] == os.cpu_count()


@pytest.mark.smoke
class TestKernelBench:
    def test_runs_standalone_in_a_fresh_process(self, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        src = os.path.join(BENCH_DIR, "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   REPRO_CALIBRATION_DIR=str(tmp_path))
        completed = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "bench_kernels.py"),
             "--repeats", "1", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(out.read_text())
        assert payload["conv_cells"]
        assert all(cell["dense_us"] > 0.0 and cell["csr_us"] > 0.0
                   for cell in payload["conv_cells"])


@pytest.mark.smoke
class TestStreamingRegressionGate:
    TINY_ARGS = dict(streams=2, channels=8, events=24, window=4, hidden=16)

    def test_runs_standalone_in_a_fresh_process(self, tmp_path):
        out = tmp_path / "BENCH_streaming.json"
        src = os.path.join(BENCH_DIR, "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "bench_streaming.py"),
             "--events", "16", "--repeats", "1", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(out.read_text())["all_bit_identical"] is True

    def tiny_payload(self, bench):
        return bench.run_streaming(repeats=1, **self.TINY_ARGS)

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_streaming")
        payload = self.tiny_payload(bench)
        assert payload["all_bit_identical"]
        assert bench.GATE.check(payload, payload) == []
        doctored = dict(payload)
        doctored["csr_event_speedup"] = payload["csr_event_speedup"] * 100.0
        failures = bench.GATE.check(doctored, payload)
        assert any("csr_event_speedup" in failure for failure in failures)

    def test_divergent_results_always_fail(self):
        bench = load_bench("bench_streaming")
        payload = self.tiny_payload(bench)
        diverged = dict(payload)
        diverged["all_bit_identical"] = False
        failures = bench.GATE.check(payload, diverged)
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

    @pytest.mark.parametrize("crash", ["usage-error", "torn-baseline"])
    def test_crashing_gate_fails_and_the_rest_still_run(self, tmp_path, crash):
        check_all = load_bench("check_all")
        packaging = load_bench("bench_packaging")
        (tmp_path / "BENCH_packaging.json").write_text(json.dumps(
            {metric: 1e-6 for metric in packaging.HEADLINE_METRICS}))
        check_all.GATES["packaging"] = (
            "bench_packaging", "BENCH_packaging.json",
            ["--repeats", "1", "--load-repeats", "1", "--width", "48"],
        )
        fast = ["--repeats", "1", "--streams", "2", "--channels", "8",
                "--events", "24", "--window", "4", "--hidden", "16"]
        if crash == "usage-error":
            fast[1] = "0"
            (tmp_path / "BENCH_streaming.json").write_text("{}")
            expected_error = "SystemExit: 2"
        else:
            (tmp_path / "BENCH_streaming.json").write_text('{"csr_event')
            expected_error = "JSONDecodeError: "
        check_all.GATES["streaming"] = (
            "bench_streaming", "BENCH_streaming.json", fast,
        )
        summary_path = tmp_path / "summary.json"
        argv = ["--only", "streaming", "--only", "packaging",
                "--baseline-dir", str(tmp_path), "--json", str(summary_path)]
        assert check_all.main(argv) == 1
        summary = json.loads(summary_path.read_text())
        assert summary["failed"] == ["streaming"]
        assert summary["gates"]["streaming"]["exit_code"] != 0
        assert summary["gates"]["streaming"]["error"].startswith(expected_error)
        assert summary["gates"]["packaging"]["ok"] is True
        assert summary["gates"]["packaging"]["error"] is None

    def test_runs_as_a_script_from_outside_the_repo(self, tmp_path):
        packaging = load_bench("bench_packaging")
        (tmp_path / "BENCH_packaging.json").write_text(json.dumps(
            {metric: 1e-6 for metric in packaging.HEADLINE_METRICS}))
        completed = run_script("check_all.py", [
            "--only", "packaging", "--baseline-dir", str(tmp_path),
            "--json", "summary.json",
        ], cwd=tmp_path)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ok"] is True
        assert summary["gates"]["packaging"]["error"] is None


@pytest.mark.smoke
class TestPackagingRegressionGate:
    def tiny_payload(self, bench):
        return bench.run_comparison(repeats=1, load_repeats=1, width=48)

    def test_self_baseline_passes_and_doctored_baseline_fails(self):
        bench = load_bench("bench_packaging")
        payload = self.tiny_payload(bench)
        assert bench.GATE.check(payload, payload) == []
        doctored = dict(payload)
        doctored["artifact_size_ratio"] = payload["artifact_size_ratio"] * 100.0
        failures = bench.GATE.check(doctored, payload)
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
        failures = bench.GATE.check(doctored, payload)
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


@pytest.mark.smoke
class TestPackagingBench:
    def test_runs_standalone_in_a_fresh_process(self, tmp_path):
        out = tmp_path / "BENCH_packaging.json"
        src = os.path.join(BENCH_DIR, "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "bench_packaging.py"),
             "--repeats", "1", "--load-repeats", "1", "--width", "64",
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        errors = json.loads(out.read_text())["max_abs_error"]
        for runtime in ("int8_runtime_f32", "int8_runtime_int8",
                        "f16_runtime_f16", "f32_runtime_f32"):
            assert runtime in errors, runtime
