"""Every ``repro.*`` module imports on its own, in a fresh process.

An import cycle only bites when a module is the *first* one imported:
the test suite, the benches and ``check_all.py`` each import in an
order that can hide it.  So every module is imported in its own
process that has loaded nothing from ``repro`` yet.  One fresh
interpreter preloads numpy and scipy (third-party, not under test) and
forks one child per module, which keeps the sweep to a few seconds.
BLAS runs single-threaded there, so the forking process has no threads.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

_FORK_IMPORTS = """
import importlib, json, os, sys, traceback
import numpy, scipy.sparse

def run(name):
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:  # SystemExit too: a module must not exit
            sys.stdout.write(json.dumps(
                [name, traceback.format_exc().strip().splitlines()[-1]]) + "\\n")
            sys.stdout.flush()
            os._exit(1)
        os._exit(0)
    return pid

names = sys.argv[1:]
running = []
for name in names:
    running.append(run(name))
    if len(running) == 2:
        os.waitpid(running.pop(0), 0)
for pid in running:
    os.waitpid(pid, 0)
"""


def repro_modules():
    return sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )


@pytest.mark.smoke
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_every_module_imports_in_a_fresh_process():
    names = repro_modules()
    assert "repro.data.telemetry" in names
    result = subprocess.run(
        [sys.executable, "-c", _FORK_IMPORTS, *names],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR, "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
    )
    assert result.returncode == 0, result.stderr
    failures = [json.loads(line) for line in result.stdout.splitlines()]
    assert failures == []
