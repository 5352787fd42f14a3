"""Which modules may import scipy when they are loaded.

scipy costs most of a cold command's import time, so the runtime modules
import it only inside the functions that need it. fitting and sigproc are
the listed exceptions until numpy replaces their scipy calls.
"""

import ast
from pathlib import Path

import pytest

import ricemele

SRC = Path(ricemele.__file__).parent
NO_SCIPY_AT_IMPORT = ["model", "spectral", "edge_states", "scattering", "dynamics"]


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


@pytest.mark.parametrize("name", NO_SCIPY_AT_IMPORT)
def test_module_imports_no_scipy_at_module_level(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = [m for m in _import_time_modules(tree) if m.split(".")[0] == "scipy"]
    assert not found, f"{name} imports {found} at module level"
