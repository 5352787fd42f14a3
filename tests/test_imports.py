"""What importing the package costs: no scipy, only the submodules a command
runs, no numpy.ma, and one OpenBLAS thread.

scipy costs most of a cold command's import time. Only `dynamics` still
imports it, inside the near-defective `expm` fallback and
`infer_port_self_energy`, which no command reaches. The AST guard checks
every module's load-time imports; the subprocess tests run every command
with every scipy import made to fail, and `fit` must write the same bytes
without scipy as with it.

Importing `ricemele.cli` loads `errors` and `model` only; each command loads
the submodules it calls, and every command runs with numpy.ma blocked
(np.median, np.percentile and np.unique import it on first use).

Importing `ricemele` before numpy leaves the process with one OpenBLAS
thread unless the caller set OPENBLAS_NUM_THREADS; the subprocess tests
check both cases in a fresh interpreter, and that the manifest records the
setting OpenBLAS read.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ricemele
from ricemele.dynamics import TimeTrace, write_trace_csv
from ricemele.fitting import model_anticrossing_gap, model_peak_frequencies
from ricemele.model import RAD_PER_NS_PER_MHZ, ModelParams

SRC = Path(ricemele.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _blocker(package):
    """Source of a meta path finder, put in front of the others, that
    refuses package and every module in it."""
    return f"""
import sys


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == {package!r} or name.startswith({package + "."!r}):
            raise ImportError(f"{package} is blocked: {{name}}")
        return None


sys.meta_path.insert(0, Blocker())
"""


NO_SCIPY = _blocker("scipy")
NO_SCIPY_CLI = NO_SCIPY + "from ricemele.cli import main\nsys.exit(main(sys.argv[1:]))\n"

# np.median, np.percentile and np.unique import numpy.ma on their first call
NO_NUMPY_MA = _blocker("numpy.ma")

# import the CLI, run it on the arguments if there are any, then list the
# ricemele submodules the process loaded
LOADED = NO_NUMPY_MA + """
import sys
import ricemele.cli
code = ricemele.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("loaded", code, *sorted(m for m in sys.modules if m.startswith("ricemele.")))
"""


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


def _run_python(code, args, cwd, env=None):
    env = dict(os.environ if env is None else env,
               PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
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


def _write_chi_inputs(tmp_path):
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
    return ["chi", "--config", str(cfg), "--traces", *paths]


def test_chi_from_traces_runs_without_scipy(tmp_path):
    proc = _run_without_scipy([*_write_chi_inputs(tmp_path), "--out", str(tmp_path / "chi")],
                              tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "chi" / "chi.json").is_file()


def _write_fit_inputs(tmp_path):
    """Noisy peaks and gaps of the fitted device, fit with seed 0."""
    truth = ModelParams(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=0.0, VM=590.0, f0=4600.0)
    rng = np.random.default_rng(0)
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("flux_or_VQ,frequency_MHz,amplitude\n" + "".join(
        f"0,{f:.6f},1\n" for f in model_peak_frequencies(truth) + rng.normal(0.0, 2.0, 19)))
    gaps = tmp_path / "gaps.csv"
    gaps.write_text("VQ_MHz,gap_MHz\n" + "".join(
        f"{vq},{model_anticrossing_gap(truth, vq) + rng.normal(0.0, 2.0):.6f}\n"
        for vq in (-20.0, 0.0, 17.6, 35.0, 55.0)))
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("p = 4\nV = 30\nt1 = 200\nt2 = 300\ntQ = 100\nVQ = 0\nVM = 550\n"
                   "f0 = 4550\nn_bootstrap = 100\n")
    return ["fit", "--config", str(cfg), "--peaks", str(peaks), "--gaps", str(gaps), "--seed", "0"]


def test_fit_writes_the_same_bytes_without_scipy(tmp_path):
    from ricemele.cli import main

    args = _write_fit_inputs(tmp_path)
    assert main([*args, "--out", str(tmp_path / "with")]) == 0
    proc = _run_without_scipy([*args, "--out", str(tmp_path / "without")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    without = (tmp_path / "without" / "fit.json").read_bytes()
    assert without == (tmp_path / "with" / "fit.json").read_bytes()


def test_numpy_ma_blocker_stops_its_import(tmp_path):
    proc = _run_python(NO_NUMPY_MA + "import numpy as np\nnp.median([1.0, 2.0])\n", [], tmp_path)
    assert proc.returncode != 0
    assert "numpy.ma is blocked: numpy.ma" in proc.stderr


def _loaded(args, cwd):
    """The ricemele submodules a fresh interpreter loaded to import the CLI
    and run it on args, with numpy.ma blocked; the command must succeed."""
    proc = _run_python(LOADED, [*args, *(["--out", str(cwd / "out")] if args else [])], cwd)
    assert proc.returncode == 0, proc.stderr
    word, code, *modules = proc.stdout.splitlines()[-1].split()
    assert (word, code) == ("loaded", "0"), proc.stdout
    return {m.removeprefix("ricemele.") for m in modules}


def test_cli_import_loads_only_errors_and_model(tmp_path):
    assert _loaded([], tmp_path) == {"cli", "errors", "model"}


# every command, and the submodules it must not load
@pytest.mark.parametrize("args, unused", [
    (["spectrum", "--preset", "fig1"], {"fitting", "scattering", "dynamics", "sigproc"}),
    (["emit", "--preset", "fig5"], {"fitting", "scattering", "sigproc"}),
    (["scatter", "--preset", "fig3"], {"fitting", "dynamics", "edge_states", "sigproc"}),
    (["scatter", "--preset", "fig4"], {"fitting", "dynamics", "edge_states", "sigproc"}),
    (["chi", "--preset", "appc"], {"fitting", "scattering"}),
    ("traces", {"fitting", "scattering"}),
    ("fit", {"spectral", "scattering", "dynamics", "sigproc", "edge_states"}),
], ids=["spectrum", "emit", "scatter-fig3", "scatter-fig4", "chi-appc", "chi-traces", "fit"])
def test_command_loads_only_its_modules_and_no_numpy_ma(tmp_path, args, unused):
    if args == "traces":
        args = _write_chi_inputs(tmp_path)
    elif args == "fit":
        args = _write_fit_inputs(tmp_path)
    loaded = _loaded(args, tmp_path)
    assert not loaded & unused, loaded
    assert args[0] != "fit" or "fitting" in loaded


def test_every_exported_name_resolves_and_is_listed(tmp_path):
    code = ("import ricemele\n"
            "names = ricemele.__all__\n"
            "print(len(names), len(set(names)), all(getattr(ricemele, n) is not None for n in names),"
            " set(names) <= set(sorted(dir(ricemele))), hasattr(ricemele, 'nope'))\n")
    proc = _run_python(code, [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    count, distinct, resolved, listed, bogus = proc.stdout.split()
    assert int(count) == int(distinct) >= 50
    assert (resolved, listed, bogus) == ("True", "True", "False")


def _references(path):
    """The names a Python file reads, each read counted outside the def or
    class of the same name: loads of a bare name and attribute reads."""
    found = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(path.read_text()), frozenset())
    return found


def test_every_exported_name_has_a_caller():
    # a public name that only the unit tests use is a second path to keep in
    # step; the acceptance criteria and the scripts count as callers
    repo = SRC.parent.parent
    paths = [*SRC.glob("*.py"), *(repo / "scripts").glob("*.py"),
             repo / "tests" / "test_acceptance.py"]
    used = set().union(*map(_references, paths))
    assert sorted(set(ricemele.__all__) - used) == []


def _calls(path):
    """(called name, positional argument count, keyword names) of every call
    in a Python file, by the bare name or the attribute called."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(
                node.func, "attr", None)
            yield name, len(node.args), {k.arg for k in node.keywords}


# defaults of public functions that no caller sets, each with its reason
UNSET_DEFAULTS = {
    # the tests also start from the excited state (tests/test_dynamics.py,
    # test_bloch_undriven_relaxation and test_bloch_trace_below_the_old_stepping_floor)
    "bloch_rabi_trace.s0",
}


def test_every_default_argument_has_a_caller():
    # a default that no caller sets is an option to keep tested for nothing;
    # a module constant does its job. The callers are those of
    # test_every_exported_name_has_a_caller
    repo = SRC.parent.parent
    paths = [*SRC.glob("*.py"), *(repo / "scripts").glob("*.py"),
             repo / "tests" / "test_acceptance.py"]
    calls = [call for path in paths for call in _calls(path)]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    unset = set()
    for name in ricemele.__all__:
        func = getattr(ricemele, name)
        if not inspect.isfunction(func):
            continue
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is not inspect.Parameter.empty and not any(
                    called == name and (param.name in keywords
                                        or (param.kind in positional and n_args > i))
                    for called, n_args, keywords in calls):
                unset.add(f"{name}.{param.name}")
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


# the variable and the process's thread count after a cold CLI import
BLAS_THREADS = """
import os
import ricemele.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")))
"""


def _blas_threads(tmp_path, value):
    """(OPENBLAS_NUM_THREADS, thread count) seen by a child whose caller set
    the variable to value, or left it unset for None. This process carries
    the variable once it has imported ricemele, so the child's environment
    is built without it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    proc = _run_python(BLAS_THREADS, [], tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    setting, threads = proc.stdout.split()
    return setting, int(threads)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_runs_one_blas_thread_by_default(tmp_path):
    setting, threads = _blas_threads(tmp_path, None)
    assert threads == 1
    assert setting == "1"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_caller_blas_thread_setting_wins(tmp_path):
    assert _blas_threads(tmp_path, "2")[0] == "2"


# run the chi preset in a fresh interpreter, numpy imported first or not,
# and print the manifest's OPENBLAS_NUM_THREADS
MANIFEST_BLAS = """
import json, sys
if sys.argv[1] == "numpy-first":
    import numpy
import ricemele.cli
assert ricemele.cli.main(["chi", "--preset", "appc", "--out", sys.argv[2]]) == 0
print(json.dumps(json.load(open(sys.argv[2] + "/manifest.json"))["versions"]["OPENBLAS_NUM_THREADS"]))
"""


@pytest.mark.parametrize("order, value, recorded", [
    ("numpy-first", None, None),   # OpenBLAS kept its default
    ("cli-first", None, "1"),
    ("cli-first", "2", "2"),
])
def test_manifest_records_the_blas_setting_openblas_read(tmp_path, order, value, recorded):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    proc = _run_python(MANIFEST_BLAS, [order, str(tmp_path / "out")], tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == recorded


CLI = "import sys\nfrom ricemele.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.mark.xfail(strict=False, reason="ROADMAP D21")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # spectrum at p = 50, emit at p = 30 and scatter's fig3 grid at p = 100,
    # the smallest chains whose bytes moved with the thread count, each under
    # one and two OpenBLAS threads; every output but manifest.json, which
    # records the setting, must match
    for p in (30, 50, 100):
        (tmp_path / f"p{p}.cfg").write_text(f"p = {p}\n")
    runs = (("spectrum", "fig1", 50), ("emit", "fig5", 30), ("scatter", "fig3", 100))
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["OPENBLAS_NUM_THREADS"] = threads
        for command, preset, p in runs:
            args = [command, "--preset", preset, "--config", str(tmp_path / f"p{p}.cfg"),
                    "--out", str(tmp_path / f"{command}-{threads}")]
            proc = _run_python(CLI, args, tmp_path, env=env)
            assert proc.returncode == 0, proc.stderr
    for command, _, _ in runs:
        one, two = tmp_path / f"{command}-1", tmp_path / f"{command}-2"
        names = sorted(path.name for path in one.iterdir() if path.name != "manifest.json")
        assert names == sorted(path.name for path in two.iterdir() if path.name != "manifest.json")
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), f"{command}: {name}"
