"""The reproduction scripts run end to end.

tests/test_imports.py counts scripts/ among the callers of the public API,
so each script is run here, at a small bootstrap, in a fresh interpreter
that writes no bytecode cache into the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run_script(name, tmp_path):
    out = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name),
                           "--bootstrap", "100", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_fit_reproduction_script(tmp_path):
    report = _run_script("run_fit_reproduction.py", tmp_path)
    assert sorted(report) == ["n_bootstrap", "parameters", "residual_rms_MHz", "runtime_s"]
    assert report["n_bootstrap"] == 100
    assert sorted(report["parameters"]) == sorted(["t1", "t2", "V", "VM", "tQ"])
    for entry in report["parameters"].values():
        assert sorted(entry) == ["best", "p2_5", "p97_5", "quoted_uncertainty", "std", "truth",
                                 "within_quoted"]


def test_appc_directionality_script(tmp_path):
    payload = _run_script("run_appc_directionality.py", tmp_path)
    assert sorted(payload) == ["measured_quadruple", "synthetic_amplitudes", "synthetic_pipeline"]
    assert sorted(payload["synthetic_pipeline"]) == sorted(payload["measured_quadruple"])
    assert sorted(payload["synthetic_amplitudes"]) == sorted(
        f"{kind}_{state}{port}" for kind in ("s", "std") for state in "lr" for port in "LR")
