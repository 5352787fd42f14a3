"""transmission_map and s_matrix, one Green's function, against dense solves.

conftest's dense_s_matrix and ldos solve the full port-dressed matrix at one
(E, VQ) point; they are the oracle for the folded map and for s_matrix, and
csv.writer is the oracle for write_map_csv.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricemele import (
    ModelParams,
    NumericalError,
    ParameterError,
    build_hamiltonian,
    resonance_grid,
    s_matrix,
    transmission_map,
)
from ricemele.cli import PRESETS, RunConfig, main
from ricemele.scattering import MAP_KINDS, SpectrumMap, write_map_csv

from conftest import dense_s_matrix, ldos


def _dense_maps(params, e_grid, vq_grid, kinds):
    """Every requested map from one dense_s_matrix / ldos solve per point."""
    out = {k: np.empty((len(e_grid), len(vq_grid))) for k in kinds}
    amplitudes = [k for k in kinds if k != "LDOS"]
    for j, vq in enumerate(vq_grid):
        pj = params.with_(VQ=float(vq))
        H = build_hamiltonian(pj, include_ports=True)
        for i, e in enumerate(e_grid):
            if "LDOS" in out:
                out["LDOS"][i, j] = ldos(pj, e, H.roles.portL, H=H)
            if amplitudes:
                s = dense_s_matrix(pj, e, H=H)
                for k in amplitudes:
                    out[k][i, j] = abs(getattr(s, k))
    return out


def _preset_grids(name):
    cfg = RunConfig(PRESETS[name], seed=0)
    params = cfg.model()
    if "E_start" in cfg.raw:
        e_grid = cfg.grid("E")
    else:
        e_grid = resonance_grid(params.far_detuned(), cfg.integer("E_points", 2001))
    return params, e_grid, cfg.grid("VQ")


# Both paths carry the conditioning error of sharp resonances: on 150 random
# sets each differed from a 40-digit mpmath solve by up to 1.3e-8. |S| <= 1
# gives the absolute scale; LDOS is compared on the scale of its largest
# value, since its per-point relative error grows where it is small (up to
# 5e-8 on 1200 random sets, with the dense path the farther from mpmath).
@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 6),
    t1=st.floats(20.0, 300.0),
    t2=st.floats(20.0, 300.0),
    v=st.floats(-100.0, 100.0),
    vm=st.floats(-300.0, 300.0),
    tq=st.floats(1.0, 200.0),
    vq=st.floats(-500.0, 500.0),
    dvq=st.floats(-50.0, 50.0),
    sigma_l=st.tuples(st.floats(-20.0, 20.0), st.floats(0.5, 40.0)),
    sigma_r=st.tuples(st.floats(-20.0, 20.0), st.floats(0.5, 40.0)),
)
def test_map_matches_dense_point_oracle(p, t1, t2, v, vm, tq, vq, dvq, sigma_l, sigma_r):
    params = ModelParams(p=p, V=v, t1=t1, t2=t2, tQ=tq, VQ=vq, VM=vm,
                         sigmaL=complex(sigma_l[0], -sigma_l[1]),
                         sigmaR=complex(sigma_r[0], -sigma_r[1]))
    e_grid = resonance_grid(params, 60)
    vq_grid = np.array([vq, vq + dvq])
    dense = _dense_maps(params, e_grid, vq_grid, MAP_KINDS)
    for kind in MAP_KINDS:
        fast = transmission_map(params, e_grid, vq_grid, kind=kind).values
        scale = np.max(np.abs(dense[kind])) if kind == "LDOS" else 1.0
        assert np.max(np.abs(fast - dense[kind])) <= 1e-7 * scale, kind
    # s_matrix's four complex amplitudes, phases included
    point = params.with_(VQ=vq)
    for e in e_grid:
        got, want = s_matrix(point, e), dense_s_matrix(point, e)
        for k in MAP_KINDS[:4]:
            assert abs(getattr(got, k) - getattr(want, k)) <= 1e-7, (e, k)


_LONG_CHAIN = dict(
    p=st.integers(1, 50),
    t1=st.floats(20.0, 300.0),
    t2=st.floats(20.0, 300.0),
    v=st.floats(-100.0, 100.0),
    vm=st.floats(-300.0, 300.0),
    tq=st.floats(1.0, 200.0),
    vq=st.floats(-500.0, 500.0),
    sigma_l=st.tuples(st.floats(-20.0, 20.0), st.floats(0.5, 40.0)),
    sigma_r=st.tuples(st.floats(-20.0, 20.0), st.floats(0.5, 40.0)),
    band=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)


def _long_chain(p, t1, t2, v, vm, tq, vq, sigma_l, sigma_r, band):
    """Parameters, four energies in the bulk bands between sqrt(V^2 +
    (t1 - t2)^2) and sqrt(V^2 + (t1 + t2)^2) in magnitude, and three in the
    gap between them: its centre and 0.1 and -0.3 of its half width."""
    params = ModelParams(p=p, V=v, t1=t1, t2=t2, tQ=tq, VQ=vq, VM=vm,
                         sigmaL=complex(sigma_l[0], -sigma_l[1]),
                         sigmaR=complex(sigma_r[0], -sigma_r[1]))
    eb, top = np.hypot(v, t1 - t2), np.hypot(v, t1 + t2)
    bands = (eb + (top - eb) * np.array(band)) * np.array([-1.0, -1.0, 1.0, 1.0])
    return params, bands, eb * np.array([0.0, 0.1, -0.3]) if eb > 0 else np.array([])


def _clear_of_levels(params, energies, vq_grid):
    """The energies at least 1 MHz from every level of the closed chain at
    each VQ. A state deep in the gap (at M, or at a qubit level) can be
    narrower than 1e-14 MHz, and on it the dense solve loses every digit:
    at p = 34 with VM = 0 and E = 0, dense_s_matrix gives |S_RL| of order
    1e-24, an 80-digit solve 0.9765 and transmission_map and s_matrix
    0.9770."""
    levels = np.concatenate([np.linalg.eigvalsh(build_hamiltonian(params.with_(VQ=float(vq))).matrix)
                             for vq in vq_grid])
    return energies[np.min(np.abs(energies[:, None] - levels), axis=1) >= 1.0]


# Chains of up to 203 sites (p = 50), off the resonance_grid windows. The
# bound on |S| and LDOS is that of test_map_matches_dense_point_oracle,
# since a long chain has sharp resonances too; over 1500 random sets the
# two agreed to 1.8e-12 on |S| and 3.8e-12 on LDOS. In the gap, where
# |S_RL| of the bare chain (tQ = 0) is the product of the b/dL factors and
# fell to 6e-98, they agreed to 2.4e-14 relative; the bound there is 1e-9.
@settings(max_examples=30, deadline=None)
@given(**_LONG_CHAIN)
def test_long_chain_map_matches_dense_point_oracle(**draw):
    params, bands, gap = _long_chain(**draw)
    vq_grid = np.array([params.VQ, params.VQ + 17.0])
    e_grid = np.concatenate([bands, _clear_of_levels(params, gap, vq_grid)])
    dense = _dense_maps(params, e_grid, vq_grid, MAP_KINDS)
    for kind in MAP_KINDS:
        fast = transmission_map(params, e_grid, vq_grid, kind=kind).values
        scale = np.max(np.abs(dense[kind])) if kind == "LDOS" else 1.0
        assert np.max(np.abs(fast - dense[kind])) <= 1e-7 * scale, kind
    # the qubit decoupled and parked above the bands: no transmission zero
    bare = params.with_(tQ=0.0, VQ=float(np.max(np.abs(bands))) + 100.0)
    gap = _clear_of_levels(bare, gap, [bare.VQ])
    if gap.size:
        fast = transmission_map(bare, gap, [bare.VQ]).values
        dense = _dense_maps(bare, gap, [bare.VQ], ["S_RL"])["S_RL"]
        assert np.all(np.abs(fast - dense) <= 1e-9 * dense), (fast, dense)


# the lossless interior of test_reciprocity_and_flux_conservation, on the map path
@settings(max_examples=30, deadline=None)
@given(**_LONG_CHAIN)
def test_map_reciprocity_and_flux_conservation(**draw):
    params, bands, gap = _long_chain(**draw)
    vq_grid = np.array([params.VQ, -params.VQ])
    e_grid = np.concatenate([bands, _clear_of_levels(params, gap, vq_grid)])
    s = {k: transmission_map(params, e_grid, vq_grid, kind=k).values for k in MAP_KINDS[:4]}
    assert np.array_equal(s["S_LR"], s["S_RL"])
    np.testing.assert_allclose(s["S_LL"] ** 2 + s["S_RL"] ** 2, 1.0, rtol=0, atol=1e-8)
    np.testing.assert_allclose(s["S_RR"] ** 2 + s["S_LR"] ** 2, 1.0, rtol=0, atol=1e-8)


def test_fig3_preset_map_matches_dense_oracle():
    params, e_grid, vq_grid = _preset_grids("fig3")
    dense = _dense_maps(params, e_grid, vq_grid, ["S_RL"])["S_RL"]
    fast = transmission_map(params, e_grid, vq_grid, kind="S_RL").values
    assert np.max(np.abs(fast - dense)) <= 1e-12


def test_fig4_preset_maps_match_dense_oracle():
    params, e_grid, vq_grid = _preset_grids("fig4")
    kinds = MAP_KINDS[:4]
    dense = _dense_maps(params, e_grid, vq_grid, kinds)
    fast = {k: transmission_map(params, e_grid, vq_grid, kind=k).values for k in kinds}
    for kind in kinds:
        assert np.max(np.abs(fast[kind] - dense[kind])) <= 1e-12, kind
    # both transmissions come from the one symmetric G_RL
    assert np.array_equal(fast["S_LR"], fast["S_RL"])


def test_lossless_port_rejected_for_amplitude_maps(fitted_params):
    params = fitted_params.with_(sigmaL=0j)
    for kind in MAP_KINDS[:4]:
        with pytest.raises(ParameterError):
            transmission_map(params, [0.0, 10.0], [-40.0], kind=kind)
    assert transmission_map(params, [0.0, 10.0], [-40.0], kind="LDOS").values.shape == (2, 1)


@pytest.mark.parametrize("kind", ["S_RL", "S_LL", "LDOS"])
def test_decoupled_qubit_on_the_grid_is_numerical_error(fitted_params, kind):
    # tQ = 0 and a grid point at E == VQ: the fold's f is 0/0 and the full
    # matrix is singular there
    params = fitted_params.with_(tQ=0.0)
    with pytest.raises(NumericalError):
        transmission_map(params, np.linspace(-50, 50, 11), [-30.0, 0.0], kind=kind)


def test_transmission_is_exactly_zero_at_the_qubit_energy(fitted_params):
    # at E == VQ the qubit self-energy tQ^2 / (E - VQ) is infinite, so G_MM
    # and with it G_RL = t_R t_L G_MM are exactly 0: the qubit pins M
    vq = np.array([-40.0, 17.6, 300.0])
    e_grid = np.concatenate([vq, [-39.0, 18.0]])
    for kind in ("S_RL", "S_LR"):
        values = transmission_map(fitted_params, e_grid, vq, kind=kind).values
        assert np.array_equal(values[[0, 1, 2], [0, 1, 2]], np.zeros(3)), kind
        assert (values[3:] > 0).all()
    for v in vq:
        point = s_matrix(fitted_params.with_(VQ=float(v)), float(v))
        assert point.S_RL == 0 and point.S_LR == 0


def test_map_with_m_cut_off_matches_dense_oracle(fitted_params):
    # t1 = 0 cuts M off the chain, so E - H0 is singular at E == VM, while
    # the full G, with M bound to the qubit, is regular there
    params = fitted_params.with_(t1=0.0)
    e_grid = np.array([100.0, params.VM])
    dense = _dense_maps(params, e_grid, [-40.0], MAP_KINDS)
    for kind in MAP_KINDS:
        fast = transmission_map(params, e_grid, [-40.0], kind=kind).values
        assert np.max(np.abs(fast - dense[kind])) <= 1e-12, kind
    assert np.array_equal(dense["S_LL"], [[1.0], [1.0]]) and not dense["S_RL"].any()


def test_zero_pivot_of_a_port_free_piece_matches_dense_oracle():
    # V = VM = 0: at E = 0 the site next to M, alone, has a level at E, so the
    # fraction from M toward each port starts on a zero pivot; G is regular
    params = ModelParams(p=2, V=0.0, t1=100.0, t2=140.0, tQ=50.0, VQ=3.0, VM=0.0,
                         sigmaL=-10j, sigmaR=-4j)
    e_grid = np.array([-20.0, 0.0, 20.0])
    dense = _dense_maps(params, e_grid, [3.0, -7.0], MAP_KINDS)
    for kind in MAP_KINDS:
        fast = transmission_map(params, e_grid, [3.0, -7.0], kind=kind).values
        assert np.max(np.abs(fast - dense[kind])) <= 1e-12, kind


def _scatter_cfg(tmp_path, **changes):
    keys = {"p": 2, "V": 30, "t1": 100, "t2": 140, "tQ": 50, "VQ": 0, "VM": 0,
            "sigmaL_im": -10, "sigmaR_im": -10, "E_points": 41,
            "E_start": -20, "E_stop": 20, "VQ_start": -10, "VQ_stop": 10, "VQ_points": 3}
    keys.update(changes)
    cfg = tmp_path / "scatter.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return cfg


@pytest.mark.parametrize("changes", [{"tQ": 0}], ids=["tQ0_E_eq_VQ"])
def test_cli_singular_map_exits_numerical(tmp_path, capsys, changes):
    cfg = _scatter_cfg(tmp_path, **changes)
    rc = main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "numerical error" in err and "Traceback" not in err
    assert not list((tmp_path / "out").glob("map_*.csv"))


def test_cli_map_with_m_cut_off_exits_zero(tmp_path):
    # t1 = 0 with E == VM on the grid: the map is regular there
    cfg = _scatter_cfg(tmp_path, t1=0)
    assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "map_S_RL.csv").read_text().count("\n") == 1 + 41 * 3


def _csv_writer_oracle(path, smap):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["E_MHz", "VQ_MHz", "value"])
        for i, e in enumerate(smap.E_grid):
            e_txt = repr(float(e)).removesuffix(".0")
            for j, vq in enumerate(smap.VQ_grid):
                writer.writerow([e_txt, f"{vq:.10g}", f"{smap.values[i, j]:.10g}"])


def test_map_csv_bytes_match_csv_writer(tmp_path, fitted_params):
    grid = resonance_grid(fitted_params.far_detuned(), 2001)
    vq_grid = np.array([-60.0, -2.5e-7, 0.0, 17.6, 1e12, 95.0])
    values = np.random.default_rng(3).random((grid.size, vq_grid.size))
    values[::5] = 0.0
    values[1::7] *= 1e-12
    values[2::9] *= 3e14
    values[3::11] = 1.0
    for kind, v in (("S_RL", values), ("LDOS", values[::-1].copy())):
        smap = SpectrumMap(E_grid=grid + 4600.0 * (kind == "LDOS"), VQ_grid=vq_grid,
                           values=v, kind=kind)
        write_map_csv(tmp_path / "fast.csv", smap)
        _csv_writer_oracle(tmp_path / "oracle.csv", smap)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
