import csv
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ricemele
from ricemele import DataFormatError, ModelParams, ParameterError
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
    # too few probe energies for a resonance grid: a peak needs three
    for points in (-5, 0, 2):
        cfg.write_text(f"E_points = {points}\n")
        rc = _run(["scatter", "--preset", "fig3", "--config", cfg, "--out", tmp_path / "out"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "usage error: a resonance grid needs at least 3 points" in err
    # a negative time grid count used to escape as numpy's ValueError
    cfg.write_text("t_points = -1\n")
    rc = _run(["emit", "--preset", "fig5", "--config", cfg, "--out", tmp_path / "out"])
    assert rc == 2
    assert "usage error: t_points must be at least 1, got -1" in capsys.readouterr().err


def test_chain_too_long_for_a_dense_matrix_is_usage_error(tmp_path, capsys):
    # rejected on the size 16 (4p + 4)^2 bytes alone, before any allocation
    from ricemele.model import MAX_MATRIX_BYTES

    assert 16 * (4 * 2047 + 4) ** 2 <= MAX_MATRIX_BYTES < 16 * (4 * 2048 + 4) ** 2
    cfg = tmp_path / "long.cfg"
    for p in ("2048", "100000000000000000000"):
        cfg.write_text(f"p = {p}\n")
        for command, preset in (("spectrum", "fig1"), ("emit", "fig5"), ("scatter", "fig3")):
            rc = _run([command, "--preset", preset, "--config", cfg, "--out", tmp_path / "out"])
            err = capsys.readouterr().err
            assert rc == 2, err
            assert f"usage error: p = {p}: a dense (4p+4)^2 complex Hamiltonian" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("command, preset, key", [
    ("spectrum", "fig1", "VQ_points"), ("scatter", "fig3", "VQ_points"),
    ("scatter", "fig3", "E_points"), ("emit", "fig5", "t_points"),
])
def test_grid_too_large_for_memory_is_usage_error(tmp_path, capsys, command, preset, key):
    # rejected on the count alone, before any allocation; numpy used to raise
    # _ArrayMemoryError ("Unable to allocate 72.8 TiB") at 10**13 points
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = {10**13}\n")
    rc = _run([command, "--preset", preset, "--config", cfg, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "10000000000000" in err and "would exceed 1073741824 bytes" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("blocker", [
    "regular-file",
    pytest.param("unwritable-dir", marks=pytest.mark.skipif(
        os.geteuid() == 0, reason="root creates directories regardless of mode")),
])
def test_out_that_cannot_be_created_is_usage_error(tmp_path, capsys, blocker):
    parent = tmp_path / blocker
    if blocker == "regular-file":
        parent.write_text("")
    else:
        parent.mkdir(mode=0o500)
    out = parent / "sub"
    rc = _run(["chi", "--preset", "appc", "--out", out])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"usage error: cannot create output directory {out}" in err


# characters str.splitlines breaks at although they end no line of the file
@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029", "\r"])
def test_config_errors_name_a_line_the_file_has(tmp_path, capsys, sep):
    cfg = tmp_path / "run.cfg"
    text = f"s_lL = 1{sep}s_lR = 2\r\nbad line\r\n"
    cfg.write_bytes(text.encode("utf-8"))
    rc = _run(["chi", "--config", cfg, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 3, err
    lines = [int(n) for n in re.findall(r"line (\d+):", err)]
    assert lines == [2], err
    assert "got 'bad line'" in err


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


def test_small_spectrum_gap_holds_the_defect_state_and_both_working_points(tmp_path):
    # at p = 2 the far-detuned defect state at -0.13 MHz lies inside the bulk
    # gap |E| < sqrt(30^2 + 40^2) = 50 MHz, so it is in the gap, not an edge
    # of it, and the rightward working point VQ = +30 MHz lies inside as well
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPECTRUM_CFG)
    assert _run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 0
    report = json.loads((tmp_path / "out" / "directionality.json").read_text())
    gap = report["band_gap_MHz"]
    assert gap["lower"] == pytest.approx(-85.876, abs=1e-3)
    assert gap["upper"] == pytest.approx(85.180, abs=1e-3)
    params = ModelParams(p=2, V=30.0, t1=100.0, t2=140.0, tQ=50.0, VQ=-30.0)
    energies = np.linalg.eigvalsh(ricemele.build_hamiltonian(params.far_detuned()).matrix)
    inside = energies[(energies > gap["lower"]) & (energies < gap["upper"])]
    assert inside == pytest.approx([-0.1276], abs=1e-4)
    assert report["working_points_MHz"] == {"left": -30.0, "right": 30.0}
    right = report["reports"]["right"]
    assert gap["lower"] < right["VQ_MHz"] < gap["upper"]
    assert right["chi"] is None and right["pop_left"] == 0.0   # chi = inf


def test_spectrum_solves_only_the_gap_and_the_sweep(tmp_path, monkeypatch):
    # the working-point report is built in closed form, so the only np.linalg
    # calls of a spectrum run are the far-detuned gap's eigh and one per VQ point
    calls = []

    def counted(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, counted(name, real))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPECTRUM_CFG)
    assert _run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert calls == ["eigh"] * (1 + 9)


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


def test_emit_T2_and_detuning_set_the_free_precession(tmp_path):
    # once the drive is off (600 ns in fig5), |sigma_minus| decays as
    # exp(-t / T2) and its phase turns at -detuning
    cfg = tmp_path / "emit.cfg"
    cfg.write_text("T2_ns = 80\ndetuning = 2\n")
    assert _run(["emit", "--preset", "fig5", "--config", cfg, "--out", tmp_path]) == 0
    rows = _read_csv(tmp_path / "bloch.csv")
    header, table = rows[0], np.array(rows[1:], dtype=float)
    t = table[:, header.index("t_ns")]
    late = dict(zip(header, table[(t >= 700) & (t <= 1000)].T))
    z = late["sigma_minus_re"] + 1j * late["sigma_minus_im"]
    decay = np.polyfit(late["t_ns"], np.log(np.abs(z)), 1)[0]
    turn = np.polyfit(late["t_ns"], np.unwrap(np.angle(z)), 1)[0]
    assert -1.0 / decay == pytest.approx(80.0, rel=1e-6)
    assert turn / (2e-3 * np.pi) == pytest.approx(-2.0, rel=1e-6)


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
    assert result["n_failed_resamples"] == 0
    for name, target in (("t1", truth.t1), ("t2", truth.t2), ("V", truth.V),
                         ("tQ", truth.tQ), ("f0", truth.f0)):
        assert result["parameters"][name]["best"] == pytest.approx(target, abs=0.5)


def test_fit_without_a_valid_tq_exits_numerical(tmp_path, capsys):
    # V = 0 puts a zero mode, dark at M, inside the gap; with a qubit below
    # it the splitting is the spacing of one qubit-like level to that zero
    # mode, below |VQ| for every tQ, so no tQ fits these gaps
    _, peaks, gaps, cfg = _write_fit_inputs(tmp_path)
    truth = ModelParams(p=4, V=0.0, t1=230.0, t2=280.0, tQ=130.0, VQ=0.0, VM=590.0, f0=4600.0)
    with open(peaks, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flux_or_VQ", "frequency_MHz", "amplitude"])
        for f in model_peak_frequencies(truth):
            writer.writerow(["0.0", f"{f:.6f}", "1.0"])
    gaps.write_text("VQ_MHz,gap_MHz\n-40,50\n-20,40\n")
    cfg.write_text("p = 4\nV = 0\nt1 = 200\nt2 = 300\ntQ = 100\nVQ = 0\nVM = 550\nf0 = 4550\n"
                   "fixed = V\nn_bootstrap = 100\n")
    rc = _run(["fit", "--config", cfg, "--peaks", peaks, "--gaps", gaps, "--out", tmp_path])
    assert rc == 4
    assert "stage 2 did not converge" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


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
    assert "threads" not in manifest


def test_manifest_records_the_blas_setup(tmp_path):
    assert _run(["chi", "--preset", "appc", "--out", tmp_path]) == 0
    versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert versions["blas"] == f"{blas['name']} {blas['version']}"
    # the setting OpenBLAS read; test_imports checks it in fresh interpreters
    assert versions["OPENBLAS_NUM_THREADS"] == ricemele._OPENBLAS_THREADS_READ


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


def _write_port_traces(tmp_path, grids):
    """One noisy 25 MHz port trace per label on the given time grids, with
    the channel the chi command reads by default."""
    from ricemele.dynamics import TimeTrace, write_trace_csv

    rng = np.random.default_rng(5)
    paths = []
    for label, amplitude, t in zip(("lL", "lR", "rL", "rR"), (1.0, 0.05, 0.04, 0.5), grids):
        x = amplitude * np.sin(2e-3 * np.pi * 25.0 * t) + 0.01 * rng.normal(size=t.size)
        path = tmp_path / f"trace_{label}.csv"
        channel = "port_L" if label.endswith("L") else "port_R"
        write_trace_csv(path, TimeTrace(t_grid=t, channels={channel: x.astype(complex)}))
        paths.append(path)
    return paths


@pytest.mark.parametrize("odd_grid", [4.0 * np.arange(500), 2.0 + 4.0 * np.arange(600)],
                         ids=["shorter", "shifted-t0"])
def test_chi_traces_on_two_grids_match_one_call_per_trace(tmp_path, monkeypatch, odd_grid):
    import ricemele.sigproc as sigproc
    from ricemele.dynamics import read_trace_csv

    grid = 4.0 * np.arange(600)
    paths = _write_port_traces(tmp_path, [grid, grid, odd_grid, grid])
    calls = []
    real = sigproc.bootstrap_amplitude

    def counted(t, samples, *args, **kwargs):
        calls.append(np.shape(samples))
        return real(t, samples, *args, **kwargs)

    monkeypatch.setattr(sigproc, "bootstrap_amplitude", counted)
    cfg = tmp_path / "chi.cfg"
    cfg.write_text("rabi_freq = 25\nn_bootstrap = 100\n")
    assert _run(["chi", "--config", cfg, "--traces", *paths, "--seed", 3, "--out", tmp_path]) == 0
    assert sorted(calls) == [(1, odd_grid.size), (3, grid.size)]

    payload = json.loads((tmp_path / "chi.json").read_text())
    for path, label in zip(paths, ("lL", "lR", "rL", "rR")):
        trace = read_trace_csv(path)
        (samples,) = trace.channels.values()
        mean, std = real(trace.t_grid, samples, 25.0, n=100, seed=3)
        assert (payload["s_values"][f"s_{label}"], payload["s_stds"][f"s_{label}"]) == (mean, std)


@pytest.mark.parametrize("preset", [["--preset", "appc"], []], ids=["appc", "no-config"])
def test_chi_traces_without_files_is_usage_error(tmp_path, capsys, preset):
    # an empty --traces is a trace run with the wrong file count, not an amplitude run
    rc = _run(["chi", *preset, "--traces", "--out", tmp_path])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "--traces needs exactly 4 files" in err
    assert not (tmp_path / "chi.json").exists()


@pytest.mark.parametrize("config, header_channel, asked", [
    ("trace_channel = nope\n", "port_L", "nope"),
    ("", "sig", "port_L"),
], ids=["config-channel", "file-channel"])
def test_chi_missing_trace_channel_is_a_data_error(tmp_path, capsys, config, header_channel, asked):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"t_ns,{header_channel}_re,{header_channel}_im\n"
                     + "".join(f"{4 * k},{np.sin(0.2 * np.pi * k):.6f},0\n" for k in range(600)))
    cfg = tmp_path / "chi.cfg"
    cfg.write_text("rabi_freq = 25\nn_bootstrap = 100\n" + config)
    out = tmp_path / "out"
    rc = _run(["chi", "--config", cfg, "--traces", trace, trace, trace, trace, "--out", out])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("data error:")
    assert "trace.csv" in err and repr(asked) in err and repr([header_channel]) in err
    assert not (out / "chi.json").exists()


# Bad input data is a data error (exit 3) that names the file and the line.

FIT_INPUT_DEFECTS = [
    # (file, contents, line): a non-finite row used to fit on, or to fail late
    pytest.param("gaps", b"VQ_MHz,gap_MHz\n-20,40\n0,nan\n", 3, id="nan-gap"),
    pytest.param("gaps", b"VQ_MHz,gap_MHz\n-20,inf\n", 2, id="inf-gap"),
    pytest.param("peaks", b"flux_or_VQ,frequency_MHz,amplitude\n0,4400,1\n0,nan,1\n", 3,
                 id="nan-peak"),
    pytest.param("peaks", b"flux_or_VQ,frequency_MHz,amplitude\n0,4400\n", 2, id="short-peak"),
    # bytes that are not UTF-8 used to escape as a UnicodeDecodeError
    pytest.param("peaks", b"flux_or_VQ,frequency_MHz,amplitude\n0,4400,1\n0,\xff\xfe,1\n", 3,
                 id="latin1-peaks"),
    pytest.param("gaps", b"VQ_MHz,gap_MHz\n\xe9,1\n", 2, id="latin1-gaps"),
    pytest.param("cfg", b"p = 2\nV = 30\nt1 = \xe9\n", 3, id="latin1-config"),
    # a config syntax error used to escape as a traceback
    pytest.param("cfg", b"p = 2\nV 30\n", 2, id="config-syntax"),
    # csv's field size limit used to escape as csv.Error
    pytest.param("gaps", b"VQ_MHz,gap_MHz\n0," + b"1" * 200_000 + b"\n", 2, id="huge-field"),
]


@pytest.mark.parametrize("which, contents, line", FIT_INPUT_DEFECTS)
def test_fit_input_defects_are_data_errors(tmp_path, capsys, which, contents, line):
    _, peaks, gaps, cfg = _write_fit_inputs(tmp_path)
    bad = {"peaks": peaks, "gaps": gaps, "cfg": cfg}[which]
    bad.write_bytes(contents)
    out = tmp_path / "out"
    rc = _run(["fit", "--config", cfg, "--peaks", peaks, "--gaps", gaps, "--out", out])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"line {line}:" in err and bad.name in err
    assert not (out / "fit.json").exists()


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    _, peaks, gaps, cfg = _write_fit_inputs(tmp_path)
    rc = _run(["fit", "--config", cfg, "--peaks", tmp_path / "absent.csv", "--gaps", gaps,
               "--out", tmp_path])
    assert rc == 3
    assert "absent.csv: cannot read" in capsys.readouterr().err


_TRACE_HEADER = b"t_ns,port_L_re,port_L_im\n"


@pytest.mark.parametrize("header, row, line", [
    (_TRACE_HEADER, b"8,nan,0\n", 4), (_TRACE_HEADER, b"8,0.1,\xff\n", 4),
    (_TRACE_HEADER, b"8,nan,0\n10,x,0\n", 4),
    # the first column is t_ns, and each pair names one channel
    (b"t_ns,port_L_re,port_R_im\n", b"8,0,0\n", 1),
    (b"time,port_L_re,port_L_im\n", b"8,0,0\n", 1),
], ids=["nan-sample", "latin1-sample", "nan-before-malformed", "mixed-channel-pair",
        "no-t_ns-column"])
def test_chi_trace_defects_are_data_errors(tmp_path, capsys, header, row, line):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(header + b"0,0.5,0\n4,0.25,0\n" + row + b"12,0,0\n")
    cfg = tmp_path / "chi.cfg"
    cfg.write_text("rabi_freq = 25\nn_bootstrap = 100\ntrace_channel = port_L\n")
    rc = _run(["chi", "--config", cfg, "--traces", trace, trace, trace, trace,
               "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"line {line}:" in err and "trace.csv" in err


_HEADERS = [b"", b"flux_or_VQ,frequency_MHz,amplitude\n", b"VQ_MHz,gap_MHz\n",
            b"t_ns,port_L_re,port_L_im\n"]
# pieces of almost-valid data files, so that the fuzzer reaches past the header
_TOKENS = [b"0", b"-1.5", b"2e3", b"1e999", b"nan", b"inf", b"x", b",", b"\n", b"\r\n", b"\r",
           b'"', b" ", b"=", b"#", b"_re", b"\x00", b"\xff", b"\xc3", b"\xe2\x82\xac"]
_FUZZ_BYTES = st.one_of(
    st.binary(max_size=300),
    st.tuples(st.sampled_from(_HEADERS), st.lists(st.sampled_from(_TOKENS), max_size=80)).map(
        lambda parts: parts[0] + b"".join(parts[1])),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FUZZ_BYTES)
def test_readers_raise_only_data_or_parameter_errors(tmp_path, data):
    from ricemele.cli import _read_gaps_csv, _read_peaks_csv, parse_config
    from ricemele.dynamics import read_trace_csv
    from ricemele.model import read_text

    path = tmp_path / "fuzzed.csv"
    path.write_bytes(data)
    for read in (_read_peaks_csv, _read_gaps_csv, read_trace_csv,
                 lambda p: parse_config(read_text(p), source=str(p))):
        try:
            read(path)
        except (DataFormatError, ParameterError):
            pass
