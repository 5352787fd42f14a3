"""No module of the package imports scipy when it is loaded.

scipy costs most of a cold command's import time, so the modules import it
only inside the functions that need it, and only `fit` reaches one of them.
The AST guard checks every module's load-time imports; the subprocess tests
run the other commands with every scipy import made to fail.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ricemele
from ricemele.dynamics import TimeTrace, write_trace_csv
from ricemele.model import RAD_PER_NS_PER_MHZ

SRC = Path(ricemele.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# a meta path finder in front of the others that refuses any scipy module
NO_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
"""
NO_SCIPY_CLI = NO_SCIPY + "from ricemele.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _import_time_modules(tree):
    """Names imported by statements that run when the module is loaded."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        stack.extend(ast.iter_child_nodes(node))


def test_guard_sees_module_level_imports():
    tree = ast.parse("import scipy.linalg\nclass A:\n    from scipy import optimize\n"
                     "def f():\n    import scipy.signal\n")
    assert sorted(_import_time_modules(tree)) == ["scipy", "scipy.linalg"]


def test_guard_covers_the_whole_package():
    assert {"cli", "fitting", "sigproc", "dynamics", "__init__"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_no_scipy_at_module_level(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = [m for m in _import_time_modules(tree) if m.split(".")[0] == "scipy"]
    assert not found, f"{name} imports {found} at module level"


def _run_python(code, args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _run_without_scipy(args, cwd):
    return _run_python(NO_SCIPY_CLI, args, cwd)


def test_blocker_stops_a_scipy_import(tmp_path):
    proc = _run_python(NO_SCIPY + "import scipy.linalg\n", [], tmp_path)
    assert proc.returncode != 0
    assert "scipy is blocked: scipy" in proc.stderr


@pytest.mark.parametrize("command, preset", [
    ("spectrum", "fig1"), ("emit", "fig5"), ("scatter", "fig3"),
])
def test_preset_runs_without_scipy(tmp_path, command, preset):
    proc = _run_without_scipy([command, "--preset", preset, "--out", str(tmp_path / "out")],
                              tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_chi_from_traces_runs_without_scipy(tmp_path):
    rng = np.random.default_rng(0)
    t = 4.0 * np.arange(600)
    paths = []
    for label, channel, amplitude in (("lL", "port_L", 1.0), ("lR", "port_R", 0.05),
                                      ("rL", "port_L", 0.04), ("rR", "port_R", 0.5)):
        x = amplitude * np.sin(RAD_PER_NS_PER_MHZ * 25.0 * t) + 0.01 * rng.normal(size=t.size)
        path = tmp_path / f"trace_{label}.csv"
        write_trace_csv(path, TimeTrace(t_grid=t, channels={channel: x.astype(complex)}))
        paths.append(str(path))
    cfg = tmp_path / "chi.cfg"
    cfg.write_text("rabi_freq = 25\nn_bootstrap = 100\n")
    proc = _run_without_scipy(["chi", "--config", str(cfg), "--traces", *paths,
                               "--out", str(tmp_path / "chi")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "chi" / "chi.json").is_file()
