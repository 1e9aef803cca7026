"""Every ``repro.*`` module imports on its own, in a fresh process; the
lower layers never reach up into ``repro.sparse``, streaming never
reaches into training, and no module needs ``networkx``.

An import cycle only bites when a module is the *first* one imported:
the test suite, the benches and ``check_all.py`` each import in an
order that can hide it.  So every module is imported in its own
process that has loaded nothing from ``repro`` yet.  One fresh
interpreter preloads numpy and scipy (third-party, not under test) and
forks one child per module, which keeps the sweep to a few seconds.
BLAS runs single-threaded there, so the forking process has no threads.
"""

import ast
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


#: Packages below ``repro.sparse``: sparse imports them, never the reverse.
LOWER_LAYERS = ("tensor", "nn", "snn")


def _imported_modules(node, package):
    """Absolute ``repro`` module names one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        parts = package.split(".")
        base = ".".join(parts[:len(parts) - node.level + 1])
        module = f"{base}.{node.module}" if node.module else base
    else:
        module = node.module
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def _imports(tree, package):
    """``(line, modules, in_function)`` for every import in ``tree``."""
    found = []

    def visit(node, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append((node.lineno, _imported_modules(node, package), in_function))
        nested = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(tree, False)
    return found


def test_lower_layers_never_import_sparse_or_defer_imports():
    """No module under ``repro/tensor``, ``repro/nn`` or ``repro/snn``
    imports ``repro.sparse``, at top level or inside a function, and none
    imports a ``repro`` module inside a function (a deferred import is
    how a package cycle hides)."""
    root = Path(SRC_DIR) / "repro"
    sparse_imports, deferred = [], []
    for layer in LOWER_LAYERS:
        for path in sorted((root / layer).rglob("*.py")):
            # A module's package, and an ``__init__``'s own package.
            package = ".".join(path.relative_to(SRC_DIR).parts[:-1])
            where = str(path.relative_to(root))
            for line, names, in_function in _imports(ast.parse(path.read_text()), package):
                if any(name == "repro.sparse" or name.startswith("repro.sparse.")
                       for name in names):
                    sparse_imports.append(f"{where}:{line}")
                if in_function and any(name.split(".")[0] == "repro" for name in names):
                    deferred.append(f"{where}:{line}")
    assert sparse_imports == []
    assert deferred == []


def _package_imports(subdir=""):
    """``(where, line, modules)`` for every import under ``repro/<subdir>``."""
    root = Path(SRC_DIR) / "repro"
    for path in sorted((root / subdir).rglob("*.py")):
        package = ".".join(path.relative_to(SRC_DIR).parts[:-1])
        where = str(path.relative_to(root))
        for line, names, _ in _imports(ast.parse(path.read_text()), package):
            yield where, line, names


def test_stream_never_imports_train():
    """Streaming serves packed models; it must not load the training
    stack, at top level or inside a function."""
    found = [
        f"{where}:{line}" for where, line, names in _package_imports("stream")
        if any(name == "repro.train" or name.startswith("repro.train.") for name in names)
    ]
    assert found == []


def test_no_module_imports_networkx():
    """``setup.py`` installs numpy and scipy only."""
    found = [
        f"{where}:{line}" for where, line, names in _package_imports()
        if any(name.split(".")[0] == "networkx" for name in names)
    ]
    assert found == []


def test_serving_import_loads_no_networkx():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
