"""Each output check passes a right output and rejects a corrupted one.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
The right outputs are made with the reference model, so these tests do not
run ricemele, except the last one, which traces one short CLI command.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks as ck  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402

F, FIG1 = ref.FITTED, ref.FIG1


def _h(device, vq, ports=True):
    return ref.hamiltonian(device["p"], device["V"], device["t1"], device["t2"], device["tQ"],
                           vq, device["VM"], device["sigma"] if ports else 0j)


def _fig4_like_maps():
    energies = np.linspace(-70.0, 90.0, 9)
    vqs = np.linspace(-60.0, 95.0, 4)
    maps = {k: np.empty((energies.size, vqs.size)) for k in ("S_LL", "S_LR", "S_RL", "S_RR")}
    for j, vq in enumerate(vqs):
        s = ref.s_matrix(_h(F, vq), F["sigma"], energies)
        for k in maps:
            maps[k][:, j] = np.abs(s[k])
    return energies, vqs, maps


def test_reciprocity_and_flux():
    _, _, m = _fig4_like_maps()
    ck.check_reciprocity_and_flux(m["S_LL"], m["S_LR"], m["S_RL"])
    broken = m["S_LR"].copy()
    broken[3, 2] *= 1.001
    with pytest.raises(ck.CheckFailed, match="reciprocity"):
        ck.check_reciprocity_and_flux(m["S_LL"], broken, m["S_RL"])
    lossy = m["S_LL"] * 0.999
    with pytest.raises(ck.CheckFailed, match="flux"):
        ck.check_reciprocity_and_flux(lossy, m["S_LR"], m["S_RL"])


def test_map_points_against_reference():
    energies, vqs, m = _fig4_like_maps()
    i, j = np.array([0, 4, 8]), np.array([3, 1, 0])
    ck.check_map_points("S_RL", energies[i], vqs[j], m["S_RL"][i, j], F)
    with pytest.raises(ck.CheckFailed, match="S_RL map"):
        ck.check_map_points("S_RL", energies[i], vqs[j], m["S_RL"][i, j] + 1e-6, F)
    # a map of another kind does not pass for S_RL
    with pytest.raises(ck.CheckFailed):
        ck.check_map_points("S_RL", energies[i], vqs[j], m["S_LL"][i, j], F)


def _far_poles():
    vq = 10.0 * max(F["t1"], F["t2"]) + F["VM"]
    lam, vecs = np.linalg.eig(_h(F, vq))
    qubit = int(np.argmax(np.abs(vecs[-1]) ** 2))
    return vq, np.sort(np.delete(lam, qubit).real)


def test_far_detuned_peaks():
    vq, poles = _far_poles()
    ck.check_far_detuned_peaks(poles + 0.6, vq, F)
    with pytest.raises(ck.CheckFailed, match="expected 19"):
        ck.check_far_detuned_peaks(poles[1:], vq, F)
    shifted = poles.copy()
    shifted[7] += 2.0
    with pytest.raises(ck.CheckFailed, match="from its pole"):
        ck.check_far_detuned_peaks(shifted, vq, F)


def test_sweep_levels():
    levels = np.linalg.eigvalsh(_h(FIG1, 12.5, ports=False))
    ck.check_sweep_levels(12.5, levels, FIG1)
    levels[20] += 1e-2
    with pytest.raises(ck.CheckFailed, match="differ"):
        ck.check_sweep_levels(12.5, levels, FIG1)
    with pytest.raises(ck.CheckFailed, match="levels"):
        ck.check_sweep_levels(12.5, levels[:-1], FIG1)


def test_working_points():
    ck.check_working_points(-37.49999, 37.49999, 37.5)
    with pytest.raises(ck.CheckFailed, match="left"):
        ck.check_working_points(-37.4, 37.5, 37.5)
    # swapped points are both wrong
    with pytest.raises(ck.CheckFailed):
        ck.check_working_points(37.5, -37.5, 37.5)


def _edge_mode(vq, direction):
    _, vecs = np.linalg.eigh(_h(FIG1, vq, ports=False))
    left, right = ref.side_slices(FIG1["p"])
    prob = np.abs(vecs) ** 2
    opposite = prob[right if direction == "left" else left].sum(axis=0)
    k = int(np.argmin(opposite + (prob[-1] < 0.1)))
    return k, prob[:, k]


def test_edge_state_leakage_and_identity():
    k, prob = _edge_mode(-37.5, "left")
    ck.check_edge_state("left", -37.5, k, prob, FIG1)
    with pytest.raises(ck.CheckFailed, match="leaks"):
        ck.check_edge_state("right", -37.5, k, prob, FIG1)
    with pytest.raises(ck.CheckFailed, match="not eigenmode"):
        ck.check_edge_state("left", -37.5, k + 1, prob, FIG1)
    # away from the working point the mode spreads to both sides
    k0, prob0 = _edge_mode(-20.0, "left")
    with pytest.raises(ck.CheckFailed, match="leaks"):
        ck.check_edge_state("left", -20.0, k0, prob0, FIG1)


def _reference_emission():
    h = _h(F, -40.0)
    lam, u = np.linalg.eig(h)
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[-1] = 1.0
    t = np.linspace(0.0, 1500.0, 3001)
    psi = u @ (np.exp(-1j * ref.RAD_PER_NS_PER_MHZ * np.outer(lam, t)) * np.linalg.solve(u, psi0)[:, None])
    gamma = -2.0 * F["sigma"].imag
    w_l = np.trapezoid(gamma * np.abs(psi[0]) ** 2, t)
    w_r = np.trapezoid(gamma * np.abs(psi[-2]) ** 2, t)
    return w_l, w_r, float(np.sum(np.abs(psi[:, -1]) ** 2))


def test_emission_balance():
    w_l, w_r, norm = _reference_emission()
    ck.check_emission_balance(w_l, w_r, norm)
    with pytest.raises(ck.CheckFailed, match="emitted"):
        ck.check_emission_balance(w_l * 1.001, w_r, norm)
    with pytest.raises(ck.CheckFailed, match="emitted"):
        ck.check_emission_balance(w_l, w_r, 0.0)


def test_dressed_t1():
    lam, vecs = np.linalg.eig(_h(F, -40.0))
    k = int(np.argmax(np.abs(vecs[-1]) ** 2))
    t1 = 1.0 / (2.0 * ref.RAD_PER_NS_PER_MHZ * abs(lam[k].imag))
    ck.check_dressed_t1(t1, F, -40.0)
    with pytest.raises(ck.CheckFailed, match="dressed T1"):
        ck.check_dressed_t1(1.001 * t1, F, -40.0)


def test_bloch_decay():
    t = np.linspace(0.0, 1500.0, 3001)
    sz = np.where(t <= 600.0, -0.3, -1.0 + 0.7 * np.exp(-(t - 600.0) / 123.0))
    ck.check_bloch_decay(t, sz, 600.0, 123.0)
    with pytest.raises(ck.CheckFailed, match="free decay"):
        ck.check_bloch_decay(t, sz, 600.0, 125.0)
    with pytest.raises(ck.CheckFailed, match="no sample"):
        ck.check_bloch_decay(t, sz, 600.25, 123.0)


def test_demodulation_rejects_swapped_traces():
    truth = {"lL": 1.0, "lR": 0.03, "rL": 0.04, "rR": 0.5}
    halves = {k: a / 2.0 for k, a in truth.items()}
    chi = math.sqrt((truth["lL"] / truth["lR"]) * (truth["rR"] / truth["rL"]))
    ck.check_demodulation(halves, {"chi": chi, "fidelity": chi / (1 + chi)}, truth, 1e-3)
    swapped = dict(halves, lL=halves["lR"], lR=halves["lL"])
    chi_swapped = math.sqrt((swapped["lL"] / swapped["lR"]) * (swapped["rR"] / swapped["rL"]))
    with pytest.raises(ck.CheckFailed):
        ck.check_demodulation(swapped, {"chi": chi_swapped, "fidelity": chi_swapped / (1 + chi_swapped)},
                              truth, 1e-3)
    with pytest.raises(ck.CheckFailed, match="chi ="):
        ck.check_demodulation(halves, {"chi": 1.2 * chi, "fidelity": 1.2 * chi / (1 + 1.2 * chi)},
                              truth, 1e-3)
    with pytest.raises(ck.CheckFailed, match="fidelity"):
        ck.check_demodulation(halves, {"chi": chi, "fidelity": 0.5}, truth, 1e-3)


def _fit_table(truth, shift=0.0):
    return {k: {"best": v + shift, "p2_5": v - 5.0, "p97_5": v + 5.0, "std": 2.0} for k, v in truth.items()}


def test_fit_tolerances():
    truth = {"t1": 230.0, "t2": 280.0, "V": 40.0, "VM": 590.0, "tQ": 130.0}
    near = {k: v + 1.0 for k, v in truth.items()}
    ck.check_fit(_fit_table(truth, 1.0), truth, near)
    with pytest.raises(ck.CheckFailed, match="reference optimum"):
        ck.check_fit(_fit_table(truth, 1.1), truth, near)
    far = {k: v + 9.0 for k, v in truth.items()}
    with pytest.raises(ck.CheckFailed, match="quoted std"):
        ck.check_fit(_fit_table(truth, 9.0), truth, far)
    table = _fit_table(truth, 1.0)
    for name in ("t1", "t2"):
        table[name]["p2_5"], table[name]["p97_5"] = truth[name] + 0.5, truth[name] + 1.5
    with pytest.raises(ck.CheckFailed, match="only 3 of 5"):
        ck.check_fit(table, truth, near)


def test_reference_fit_recovers_noiseless_device():
    tr = dict(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VM=590.0, f0=4600.0)
    guess = dict(p=4, V=30.0, t1=200.0, t2=300.0, tQ=100.0, VM=550.0, f0=4550.0)
    peaks = ref.waveguide_levels(4, 40.0, 230.0, 280.0, 590.0) + 4600.0
    gaps = [(vq, ref.anticrossing_gap(4, 40.0, 230.0, 280.0, 130.0, vq, 590.0)) for vq in (-20.0, 17.6, 55.0)]
    fit = ref.fit_device(peaks, gaps, guess)
    for name in ("t1", "t2", "V", "VM", "f0", "tQ"):
        assert fit[name] == pytest.approx(tr[name], abs=1e-4)


def test_read_map_keeps_rows_with_equal_energies(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("E_MHz,VQ_MHz,value\n1,-1,0.1\n1,2,0.2\n1,-1,0.3\n1,2,0.4\n3,-1,0.5\n3,2,0.6\n")
    e, vq, values = ck.read_map(path)
    assert list(e) == [1.0, 1.0, 3.0] and list(vq) == [-1.0, 2.0]
    assert values.shape == (3, 2) and values[2, 1] == 0.6


def test_span_self_time_and_outermost_totals():
    names = ["cli.main", "spectral.eigenmodes", "model.build_hamiltonian", "cli.import"]
    rows = [
        [3, -1, 0.0, 1.0],
        [0, -1, 1.0, 11.0],
        [1, 1, 2.0, 6.0],
        [2, 2, 3.0, 4.0],
        [1, 2, 4.0, 5.0],   # nested call of the same function
    ]
    m = spans.command_metrics(names, rows)
    assert m["cli.import_s"] == 1.0 and m["cli.command_s"] == 10.0
    assert m["spectral.eigenmodes_calls"] == 2 and m["spectral.eigenmodes_s"] == 4.0
    assert m["cli.self_s"] == 6.0 and m["spectral.self_s"] == 3.0 and m["model.self_s"] == 1.0


@pytest.mark.skipif(not (HERE.parent / "src" / "ricemele").is_dir(), reason="needs the ricemele sources")
def test_traced_cli_records_spans(tmp_path):
    out = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""}
    rc = subprocess.call([sys.executable, str(HERE / "traced_cli.py"), str(out),
                          "chi", "--preset", "appc", "--out", str(tmp_path)], env=env,
                         stdout=subprocess.DEVNULL)
    assert rc == 0
    data = json.loads(out.read_text())
    m = spans.command_metrics(data["names"], data["spans"])
    assert m["cli.import_s"] > 0 and m["cli.command_s"] > 0
    assert "sigproc.chi_estimate" in data["names"]
