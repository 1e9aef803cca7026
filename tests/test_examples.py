"""Runnable examples stay runnable (fast profiles only)."""

import importlib.util
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
def test_edge_deployment_fast(capsys):
    example = load_example("edge_deployment")
    example.main(["--fast"])
    out = capsys.readouterr().out
    assert "Frozen serving package" in out
    assert "Batched server burst" in out
    assert "correctly refused" in out


@pytest.mark.smoke
@pytest.mark.parametrize("name, args", [
    pytest.param(name, args, id=name) for name, args in [
        ("toy_drop_and_grow", []),
        ("quickstart", []),
        ("distributed_sweep", []),
        ("edge_deployment", ["--fast"]),
        ("topology_evolution", []),
    ]
])
def test_example_runs_standalone(name, args, tmp_path):
    # A fresh interpreter, as `python examples/<name>.py` runs it: no
    # state carried over from the test process but the environment.
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name + ".py"), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": SRC_DIR, "TMPDIR": str(tmp_path)},
    )
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.iterdir()), "the example left temporary files"
