"""Command-line interface."""

import json

import pytest

from repro.cli import main
from repro.sparse.packaging import PackedModel


class TestList:
    def test_lists_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cifar10" in out
        assert "vgg16" in out
        assert "ndsnn" in out


class TestMemory:
    def test_prints_footprint(self, capsys):
        assert main(["memory", "--model", "lenet5", "--sparsity", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "lenet5" in out
        assert "90%" in out


class TestRun:
    def test_tiny_run_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code = main([
            "run", "--dataset", "cifar10", "--model", "convnet",
            "--method", "ndsnn", "--sparsity", "0.8",
            "--epochs", "1", "--train-samples", "32", "--test-samples", "16",
            "--timesteps", "2", "--image-size", "8",
            "--update-frequency", "1",
            "--out", str(out_path), "--quiet",
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["method"] == "ndsnn"
        assert 0.0 <= payload["final_accuracy"] <= 1.0
        assert abs(payload["final_sparsity"] - 0.8) < 0.1
        assert len(payload["history"]) == 1

    def test_dense_run(self, capsys):
        code = main([
            "run", "--dataset", "cifar10", "--model", "convnet",
            "--method", "dense", "--epochs", "1",
            "--train-samples", "32", "--test-samples", "16",
            "--timesteps", "2", "--image-size", "8", "--quiet",
        ])
        assert code == 0
        assert "dense" in capsys.readouterr().out

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "magic"])

    @pytest.mark.smoke
    @pytest.mark.parametrize("flag", ["--train-samples", "--test-samples"])
    def test_fewer_samples_than_classes_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--dataset", "cifar10", flag, "3"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} must be at least the 10 classes of cifar10, got 3" in err

    @pytest.mark.smoke
    @pytest.mark.parametrize("argv", [
        ["run", "--batch-size", "0"],
        ["run", "--timesteps", "0"],
        ["run", "--update-frequency", "0"],
        ["run", "--image-size", "0"],
        ["run", "--initial-sparsity", "0.95"],
        ["run", "--sparsity", "1.0"],
        ["run", "--epochs", "0"],
        ["run", "--epochs", "-1"],
        ["serve", "--workers", "0"],
        ["serve", "--max-latency-ms", "-1"],
        ["serve", "--requests", "0"],
        ["serve", "--clients", "0"],
        ["infer", "--max-batch", "0"],
        ["sweep", "--method", "set", "--method", "ndsnn", "--sparsity", "0.5"],
        ["sweep", "--jobs", "0"],
        ["sweep", "--jobs", "-3"],
        ["sweep", "--lease-seconds", "0"],
        ["sweep", "--max-attempts", "0"],
        ["sweep", "--backoff-seconds", "-1"],
        ["worker", "--spool", "spool", "--lease-seconds", "-1"],
        ["worker", "--spool", "spool", "--max-attempts", "0"],
        ["worker", "--spool", "spool", "--backoff-seconds", "-1"],
        ["worker", "--spool", "spool", "--idle-timeout", "-1"],
        ["sweep-status", "--spool", "spool", "--lease-seconds", "nan"],
        ["stream", "--hidden", "0"],
        ["stream", "--classes", "0"],
        ["stream", "--window", "0"],
        ["stream", "--streams", "0"],
        ["stream", "--channels", "0"],
        ["stream", "--rate-hz", "0"],
        ["stream", "--stride", "0"],
        ["stream", "--stride", "9", "--window", "8"],
        ["stream", "--adapt", "--adapt-every", "0"],
        ["stream", "--sparsity", "1.5"],
        ["stream", "--events", "0"],
        ["stream", "--workers", "0"],
        ["stream", "--ttl", "-1"],
        ["stream", "--ttl", "0"],
        ["memory", "--sparsity", "2"],
        ["memory", "--timesteps", "-1"],
        ["run", "--lr", "-1"],
        ["run", "--lr", "0"],
        ["run", "--width-mult", "0"],
        ["run", "--width-mult", "-1"],
        ["sweep", "--lr", "-0.5"],
        ["infer", "--width-mult", "0"],
        ["serve", "--lr", "nan"],
        ["export", "--width-mult", "-1"],
        ["memory", "--width-mult", "0"],
        ["memory", "--width-mult", "-1"],
    ], ids=" ".join)
    def test_bad_numeric_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.smoke
    def test_lth_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--method", "lth", "--checkpoint", str(checkpoint)])
        assert exit_info.value.code == 2
        assert "--method lth" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.smoke
    def test_csr_execution_run(self, capsys):
        code = main([
            "run", "--dataset", "cifar10", "--model", "convnet",
            "--method", "ndsnn", "--sparsity", "0.9", "--epochs", "1",
            "--train-samples", "32", "--test-samples", "16",
            "--timesteps", "2", "--image-size", "8",
            "--update-frequency", "1", "--execution", "auto", "--quiet",
        ])
        assert code == 0
        assert "ndsnn" in capsys.readouterr().out


FAST_SWEEP = [
    "--epochs", "1", "--train-samples", "32", "--test-samples", "16",
    "--timesteps", "2", "--image-size", "8", "--model", "convnet",
    "--update-frequency", "1",
]


class TestSweep:
    @pytest.mark.smoke
    def test_two_method_sweep_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--method", "dense", "--method", "ndsnn",
            *FAST_SWEEP, "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over 2 runs" in out
        payload = json.loads(out_path.read_text())
        assert [entry["method"] for entry in payload] == ["dense", "ndsnn"]
        assert all(0.0 <= entry["final_accuracy"] <= 1.0 for entry in payload)

    def test_parallel_jobs_sweep(self, capsys):
        code = main([
            "sweep", "--method", "dense", "--method", "set",
            "--jobs", "2", *FAST_SWEEP,
        ])
        assert code == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_rejects_unknown_sweep_method(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--method", "magic"])

    @pytest.mark.smoke
    @pytest.mark.parametrize("flag", ["--checkpoint-every", "--max-jobs"])
    def test_worker_rejects_nonpositive_counts(self, tmp_path, flag):
        with pytest.raises(SystemExit):
            main(["worker", "--spool", str(tmp_path), flag, "0"])


class TestQueueCLI:
    def test_queue_sweep_matches_sequential_output_file(self, tmp_path, capsys):
        sequential_out = tmp_path / "sequential.json"
        queue_out = tmp_path / "queue.json"
        args = ["sweep", "--method", "dense", "--method", "ndsnn", *FAST_SWEEP]
        assert main([*args, "--jobs", "1", "--out", str(sequential_out)]) == 0
        assert main([
            *args, "--jobs", "2", "--spool", str(tmp_path / "spool"),
            "--out", str(queue_out),
        ]) == 0
        # The acceptance bar: the queued result file is byte-identical
        # to the in-process one.
        assert queue_out.read_text() == sequential_out.read_text()

    @pytest.mark.smoke
    def test_worker_drains_spool(self, tmp_path, capsys):
        from repro.experiments import JobQueue, scaled_config

        spool = tmp_path / "spool"
        queue = JobQueue(spool)
        queue.submit([
            scaled_config("cifar10", "convnet", "dense", 0.9, epochs=1,
                          train_samples=32, test_samples=16, timesteps=2,
                          batch_size=16, image_size=8),
        ])
        assert main(["worker", "--spool", str(spool)]) == 0
        assert "completed 1 job(s)" in capsys.readouterr().out
        assert queue.status().results == 1

    @pytest.mark.smoke
    def test_sweep_status_census_and_detail(self, tmp_path, capsys):
        from repro.experiments import JobQueue, scaled_config

        spool = tmp_path / "spool"
        queue = JobQueue(spool)
        queue.submit([
            scaled_config("cifar10", "convnet", "set", 0.9, epochs=1),
        ])
        assert main(["sweep-status", "--spool", str(spool), "--jobs-detail"]) == 0
        out = capsys.readouterr().out
        assert "pending" in out
        assert "job0000-set-" in out

    @pytest.mark.smoke
    def test_sweep_status_reports_failures_nonzero(self, tmp_path, capsys):
        from repro.experiments import JobQueue, QueueWorker, scaled_config

        spool = tmp_path / "spool"
        queue = JobQueue(spool, max_attempts=1)
        queue.submit([
            scaled_config("cifar10", "convnet", "blackhole", 0.9, epochs=1),
        ])
        QueueWorker(queue, poll_seconds=0.01).run(max_jobs=1)
        assert main(["sweep-status", "--spool", str(spool)]) == 1
        assert "failed" in capsys.readouterr().out


FAST_WORKLOAD = [
    "--dataset", "cifar10", "--model", "convnet", "--method", "ndsnn",
    "--sparsity", "0.8", "--epochs", "1", "--train-samples", "32",
    "--test-samples", "16", "--timesteps", "2", "--image-size", "8",
    "--update-frequency", "1",
]


class TestServing:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serving") / "ckpt"
        assert main([
            "run", *FAST_WORKLOAD, "--checkpoint", str(path), "--quiet",
        ]) == 0
        return path

    @pytest.mark.smoke
    def test_infer_reports_accuracy_and_dispatch(self, checkpoint, tmp_path, capsys):
        out_path = tmp_path / "infer.json"
        code = main([
            "infer", *FAST_WORKLOAD,
            "--checkpoint", str(checkpoint), "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        # A convnet keeps the module path; the table and JSON say why.
        assert "session runs modules: unsupported leaf features.0 (Conv2d)" in out
        payload = json.loads(out_path.read_text())
        assert payload["session_execution"] == "modules: unsupported leaf features.0 (Conv2d)"
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["samples"] == 16
        routes = {entry["route"] for entry in payload["dispatch"]}
        assert routes <= {"csr", "dense"}
        assert payload["storage"]["frozen"] is True

    @pytest.mark.smoke
    def test_infer_compact_structured_checkpoint(self, tmp_path, capsys):
        # `run` trains no structured checkpoints from the CLI yet, so
        # write one with the library, then serve it compacted.
        import numpy as np

        from repro.experiments import scaled_config
        from repro.experiments.runner import build_experiment_model
        from repro.optim import SGD
        from repro.sparse import StructuredFilterPruning
        from repro.train.checkpoint import save_checkpoint

        config = scaled_config(
            "cifar10", "convnet", "structured", 0.8, epochs=1,
            train_samples=32, test_samples=16, timesteps=2, image_size=8,
            update_frequency=1,
        )
        model = build_experiment_model(config)
        method = StructuredFilterPruning(
            final_sparsity=0.5, total_iterations=8, update_frequency=4,
            rng=np.random.default_rng(2),
        )
        method.bind(model, SGD(model.parameters(), lr=0.1))
        for name, state in method.masks.states.items():
            mask = np.ones_like(state.mask)
            if mask.ndim == 4:
                mask[: mask.shape[0] // 2] = 0.0  # kill half the filters
            method.masks.set_mask(name, mask)
        method.masks.apply_masks()
        path = tmp_path / "structured_ckpt"
        save_checkpoint(path, model, method)

        structured = [
            arg if arg != "ndsnn" else "structured" for arg in FAST_WORKLOAD
        ]
        code = main([
            "infer", *structured, "--checkpoint", str(path), "--compact",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.smoke
    def test_serve_reports_latency_percentiles(self, checkpoint, tmp_path, capsys):
        out_path = tmp_path / "serve.json"
        code = main([
            "serve", *FAST_WORKLOAD,
            "--checkpoint", str(checkpoint), "--out", str(out_path),
            "--requests", "12", "--clients", "2", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p50_ms" in out
        assert "sessions run modules: unsupported leaf features.0 (Conv2d)" in out
        payload = json.loads(out_path.read_text())
        assert payload["p50_ms"] > 0.0
        assert payload["p99_ms"] >= payload["p50_ms"]
        assert payload["stats"]["completed"] == 12
        assert payload["stats"]["restarts"] == 0

    @pytest.mark.parametrize("command, artifact", [
        ("infer", "missing"),
        ("serve", "missing"),
        ("export", "missing"),
        ("serve", "missing_package"),
        ("infer", "torn"),
        ("serve", "torn"),
        ("export", "torn"),
        ("infer", "truncated"),
        ("serve", "f16_of_int8_package"),
        ("infer", "wrong_geometry"),
        ("infer", "wrong_model"),
    ])
    def test_bad_artifact_exits_2_with_one_error_line(
        self, checkpoint, tmp_path, capsys, command, artifact
    ):
        import shutil

        from repro.utils import load_json, save_json

        workload = list(FAST_WORKLOAD)
        source = ["--checkpoint", str(tmp_path / "missing")]
        if artifact == "missing_package":
            source = ["--package", str(tmp_path / "missing.reprom")]
        elif artifact == "torn":
            torn = tmp_path / "torn"
            for suffix in (".npz", ".json"):
                shutil.copy(checkpoint.with_suffix(suffix), torn.with_suffix(suffix))
            metadata = load_json(torn.with_suffix(".json"))
            metadata["epochs_completed"] -= 1
            save_json(torn.with_suffix(".json"), metadata)
            source = ["--checkpoint", str(torn)]
        elif artifact == "truncated":
            cut = tmp_path / "cut"
            npz = checkpoint.with_suffix(".npz").read_bytes()
            cut.with_suffix(".npz").write_bytes(npz[: len(npz) // 2])
            shutil.copy(checkpoint.with_suffix(".json"), cut.with_suffix(".json"))
            source = ["--checkpoint", str(cut)]
        elif artifact == "f16_of_int8_package":
            package = tmp_path / "int8.reprom"
            assert main([
                "export", *FAST_WORKLOAD, "--checkpoint", str(checkpoint),
                "--out", str(package), "--precision", "int8",
            ]) == 0
            source = ["--package", str(package), "--precision", "f16"]
        elif artifact in ("wrong_geometry", "wrong_model"):
            flag, value = {
                "wrong_geometry": ("--image-size", "16"),
                "wrong_model": ("--model", "lenet5"),
            }[artifact]
            workload[workload.index(flag) + 1] = value
            source = ["--checkpoint", str(checkpoint)]
        extra = {
            "export": ["--out", str(tmp_path / "out.reprom")],
            "serve": ["--requests", "4", "--clients", "1", "--workers", "1"],
        }.get(command, [])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([command, *workload, *source, *extra])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_serve_counts_failed_requests(self, checkpoint, tmp_path, capsys, monkeypatch):
        from repro.serve import InferenceSession

        def broken_predict(self, inputs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(InferenceSession, "predict", broken_predict)
        out_path = tmp_path / "serve.json"
        code = main([
            "serve", *FAST_WORKLOAD,
            "--checkpoint", str(checkpoint), "--out", str(out_path),
            "--requests", "4", "--clients", "2", "--workers", "1",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "failed" in captured.out
        assert "error: 4 of 4 requests failed" in captured.err
        payload = json.loads(out_path.read_text())
        assert payload["requests"] == 0
        assert payload["failed"] == 4
        assert payload["p50_ms"] is None and payload["p99_ms"] is None

    @pytest.mark.smoke
    def test_export_then_infer_from_package(self, checkpoint, tmp_path, capsys):
        package = tmp_path / "model.reprom"
        assert main([
            "export", *FAST_WORKLOAD,
            "--checkpoint", str(checkpoint), "--out", str(package),
            "--precision", "int8",
        ]) == 0
        assert "packed" in capsys.readouterr().out
        out_path = tmp_path / "packed_infer.json"
        code = main([
            "infer", *FAST_WORKLOAD,
            "--package", str(package), "--out", str(out_path),
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["samples"] == 16
        assert payload["storage"]["frozen"] is True
        manifest = PackedModel(package).meta["layers"]
        assert {d["layer"]: d["route"] for d in payload["dispatch"]} == {
            entry["name"]: entry["route"] for entry in manifest
        }
        packed = payload["storage"]["packed"]
        assert packed["precision"] == "int8"
        assert packed["file_bytes"] == package.stat().st_size

    def test_serving_requires_exactly_one_model_source(self, checkpoint, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["infer", *FAST_WORKLOAD])
        with pytest.raises(SystemExit, match="exactly one"):
            main([
                "infer", *FAST_WORKLOAD,
                "--checkpoint", str(checkpoint),
                "--package", str(tmp_path / "model.reprom"),
            ])


class TestStream:
    @pytest.mark.parametrize("extra, execution", [
        ([], ["plan"]),
        (["--workers", "2"], ["plan", "plan"]),
        (["--adapt"], ["modules: manager is thawed"]),
    ], ids=["frozen", "served", "adaptive"])
    def test_summary_reports_execution(self, tmp_path, capsys, extra, execution):
        out_path = tmp_path / "stream.json"
        assert main(["stream", "--streams", "2", "--events", "16",
                     "--out", str(out_path), *extra]) == 0
        assert "streamed 32 events" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["execution"] == execution
        assert payload["events"] == 32
