import csv
import json

import numpy as np
import pytest

from ricemele import ModelParams
from ricemele.cli import main
from ricemele.fitting import model_anticrossing_gap, model_peak_frequencies


def _run(args):
    return main([str(a) for a in args])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_spectrum_fig1_marks_two_in_gap_rows(tmp_path):
    assert _run(["spectrum", "--preset", "fig1", "--out", tmp_path]) == 0
    rows = _read_csv(tmp_path / "sweep.csv")
    header = rows[0]
    vq_col, gap_col = header.index("VQ_MHz"), header.index("in_gap")
    for target in ("-37.5", "37.5"):
        flagged = [r for r in rows[1:] if r[vq_col] == target and r[gap_col] == "1"]
        assert len(flagged) == 2

    report = json.loads((tmp_path / "directionality.json").read_text())
    assert report["working_points_MHz"]["left"] == pytest.approx(-37.5, abs=0.5)
    assert report["working_points_MHz"]["right"] == pytest.approx(37.5, abs=0.5)
    assert report["reports"]["left"]["fidelity"] == 1.0
    assert report["reports"]["left"]["chi"] is None

    pops = _read_csv(tmp_path / "edge_populations.csv")
    assert pops[0] == ["direction", "VQ_MHz", "mode_index", "site", "probability"]
    assert len(pops) == 1 + 2 * 44


def test_empty_vq_grid_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "p = 2\nV = 30\nt1 = 100\nt2 = 140\ntQ = 50\nVQ = -30\nVM = 0\n"
        "VQ_start = -50\nVQ_stop = 50\nVQ_points = 0\n"
    )
    rc = _run(["spectrum", "--config", cfg, "--out", tmp_path / "out"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_non_finite_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "p = 2\nV = nan\nt1 = 100\nt2 = 140\ntQ = 50\nVQ = 0\nVM = 0\n"
        "sigmaL_im = -10\nsigmaR_im = -10\nE_points = 41\n"
        "VQ_start = -10\nVQ_stop = 10\nVQ_points = 2\n"
    )
    rc = _run(["scatter", "--config", cfg, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage error" in err and "Traceback" not in err
    assert not list((tmp_path / "out").glob("map_*.csv"))


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
def test_linear_algebra_failure_is_numerical_error(tmp_path, monkeypatch, capsys, error):
    import ricemele.cli as cli

    def broken(cfg, outdir, trace_paths):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "cmd_chi", broken)
    assert _run(["chi", "--preset", "appc", "--out", tmp_path]) == 4
    assert "numerical error" in capsys.readouterr().err


def test_scatter_parks_qubit_where_far_detuned_gap_does(tmp_path, monkeypatch):
    # |V| > max(t1, t2): the parking energy is 10 |V| + VM
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        "p = 2\nV = 300\nt1 = 100\nt2 = 140\ntQ = 50\nVQ = 0\nVM = 20\n"
        "sigmaL_im = -10\nsigmaR_im = -10\nE_points = 201\n"
        "VQ_start = -10\nVQ_stop = 10\nVQ_points = 2\n"
    )
    assert _run(["scatter", "--config", cfg, "--out", tmp_path]) == 0
    peaks = _read_csv(tmp_path / "far_detuned_peaks.csv")
    assert len(peaks) > 1
    scatter_vq = float(peaks[1][0])
    assert scatter_vq == 3020.0

    import ricemele.spectral as spectral

    built = []
    real_build = spectral.build_hamiltonian
    monkeypatch.setattr(spectral, "build_hamiltonian",
                        lambda params, *a: built.append(params.VQ) or real_build(params, *a))
    spectral.far_detuned_gap(ModelParams(p=2, V=300.0, t1=100.0, t2=140.0, tQ=50.0, VQ=0.0, VM=20.0))
    assert built == [scatter_vq]


SMALL_SPECTRUM_CFG = (
    "p = 2\nV = 30\nt1 = 100\nt2 = 140\ntQ = 50\nVQ = -30\nVM = 0\n"
    "VQ_start = -50\nVQ_stop = 50\nVQ_points = 9\n"
)


def test_same_seed_gives_identical_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_SPECTRUM_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(["spectrum", "--config", cfg, "--out", out1, "--seed", 7]) == 0
    assert _run(["spectrum", "--config", cfg, "--out", out2, "--seed", 7]) == 0
    for name in ("sweep.csv", "edge_populations.csv", "directionality.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scatter_reports_nineteen_peaks(tmp_path):
    assert _run(["scatter", "--preset", "fig3", "--out", tmp_path]) == 0
    rows = _read_csv(tmp_path / "far_detuned_peaks.csv")
    assert rows[0] == ["flux_or_VQ", "frequency_MHz", "amplitude"]
    assert len(rows) == 1 + 19
    header = json.loads((tmp_path / "map_S_RL.json").read_text())
    assert header["kind"] == "S_RL"
    map_rows = _read_csv(tmp_path / "map_S_RL.csv")
    assert len(map_rows) == 1 + header["n_E"] * header["n_VQ"]


def test_chi_preset_reproduces_appendix_values(tmp_path):
    assert _run(["chi", "--preset", "appc", "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "chi.json").read_text())
    assert payload["chi"] == pytest.approx(167.5, abs=1.0)
    assert payload["fidelity"] == pytest.approx(0.994, abs=0.001)
    assert payload["chi_dB"] == pytest.approx(22.24, abs=0.01)
    assert payload["s_values"]["s_lL"] == 108.2


def test_emit_all_left_zeroes_port_r(tmp_path):
    cfg = tmp_path / "emit.cfg"
    cfg.write_text(
        "p = 4\nV = 40\nt1 = 230\nt2 = 280\ntQ = 130\nVQ = -40\nVM = 590\n"
        "sigmaL_im = -18\nsigmaR_im = -18\n"
        "t_stop = 300\nt_points = 151\nrabi_freq = 25\ndrive_ns = 150\n"
        "w_left = 1\nw_right = 0\n"
    )
    assert _run(["emit", "--config", cfg, "--out", tmp_path]) == 0
    rows = _read_csv(tmp_path / "bloch.csv")
    header = rows[0]
    re_col = header.index("port_R_re")
    im_col = header.index("port_R_im")
    assert all(float(r[re_col]) == 0.0 and float(r[im_col]) == 0.0 for r in rows[1:])
    summary = json.loads((tmp_path / "emission_summary.json").read_text())
    assert summary["bloch_w_left"] == 1.0
    assert summary["dressed_T1_ns"] == pytest.approx(123.3, abs=1.0)


def _write_fit_inputs(tmp_path):
    truth = ModelParams(p=2, V=40.0, t1=60.0, t2=180.0, tQ=60.0, VQ=0.0, VM=0.0, f0=4500.0)
    peaks = tmp_path / "peaks.csv"
    with open(peaks, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flux_or_VQ", "frequency_MHz", "amplitude"])
        for f in model_peak_frequencies(truth):
            writer.writerow(["0.0", f"{f:.6f}", "1.0"])
    gaps = tmp_path / "gaps.csv"
    with open(gaps, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["VQ_MHz", "gap_MHz"])
        for vq in (-20.0, 0.0, 20.0):
            writer.writerow([f"{vq}", f"{model_anticrossing_gap(truth, vq):.6f}"])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(
        "p = 2\nV = 30\nt1 = 70\nt2 = 160\ntQ = 45\nVQ = 0\nVM = 0\nf0 = 4450\n"
        "n_bootstrap = 120\n"
    )
    return truth, peaks, gaps, cfg


def test_fit_command_round_trip(tmp_path):
    truth, peaks, gaps, cfg = _write_fit_inputs(tmp_path)
    rc = _run(["fit", "--config", cfg, "--peaks", peaks, "--gaps", gaps, "--out", tmp_path])
    assert rc == 0
    result = json.loads((tmp_path / "fit.json").read_text())
    assert result["n_bootstrap"] == 120
    for name, target in (("t1", truth.t1), ("t2", truth.t2), ("V", truth.V),
                         ("tQ", truth.tQ), ("f0", truth.f0)):
        assert result["parameters"][name]["best"] == pytest.approx(target, abs=0.5)


def test_fit_malformed_csv_names_line(tmp_path, capsys):
    _, peaks, gaps, cfg = _write_fit_inputs(tmp_path)
    bad = tmp_path / "bad_peaks.csv"
    bad.write_text("flux_or_VQ,frequency_MHz,amplitude\n0.0,oops,1.0\n")
    rc = _run(["fit", "--config", cfg, "--peaks", bad, "--gaps", gaps, "--out", tmp_path])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


def test_fit_requires_peaks_flag(tmp_path, capsys):
    _, _, _, cfg = _write_fit_inputs(tmp_path)
    rc = _run(["fit", "--config", cfg, "--out", tmp_path])
    assert rc == 2


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["spectrum", "--preset", "nope", "--out", tmp_path])
    assert exc.value.code == 2


def test_manifest_contents(tmp_path):
    assert _run(["chi", "--preset", "appc", "--out", tmp_path, "--seed", 42]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "chi"
    assert manifest["seed"] == 42
    assert manifest["config"]["s_lL"] == "108.2"
    assert "chi.json" in manifest["outputs"]
    assert "ricemele" in manifest["versions"]


def test_chi_command_from_port_traces(tmp_path):
    from ricemele import BlochParams, bloch_rabi_trace
    from ricemele.dynamics import write_trace_csv

    t = np.arange(0.0, 3000.0, 1.0)
    left = bloch_rabi_trace(
        BlochParams(rabi_freq=25.0, T1=1500.0, T2=3000.0, w_left=0.95, w_right=0.0005),
        t, drive_on_until=3000.0,
    )
    right = bloch_rabi_trace(
        BlochParams(rabi_freq=25.0, T1=1500.0, T2=3000.0, w_left=0.0005, w_right=0.95),
        t, drive_on_until=3000.0,
    )
    left_path, right_path = tmp_path / "left.csv", tmp_path / "right.csv"
    write_trace_csv(left_path, left)
    write_trace_csv(right_path, right)
    cfg = tmp_path / "chi.cfg"
    cfg.write_text("rabi_freq = 25\nn_bootstrap = 100\n")
    rc = _run([
        "chi", "--config", cfg, "--out", tmp_path,
        "--traces", left_path, left_path, right_path, right_path,
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "chi.json").read_text())
    # amplitude ratios: sqrt(w_intended / w_opposite) = sqrt(1900) per side
    assert payload["chi"] == pytest.approx(np.sqrt(0.95 / 0.0005), rel=0.1)
    assert payload["s_stds"]["s_lL"] > 0.0
