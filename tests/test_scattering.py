import numpy as np
import pytest
from scipy.signal import find_peaks

from ricemele import (
    ModelParams,
    ParameterError,
    build_hamiltonian,
    far_detuned_gap,
    greens_function,
    ldos,
    resonance_grid,
    s_matrix,
    transmission_map,
)
from ricemele.model import LabeledHamiltonian, SiteRoles
from ricemele.scattering import SpectrumMap, write_map_csv, write_map_header_json


def _single_site(epsilon, sigma_l, sigma_r):
    roles = SiteRoles(dim=1, portL=1, portR=1, M=1, NL=1, NR=1, Q=1)
    m = np.array([[epsilon + sigma_l + sigma_r]], dtype=complex)
    return LabeledHamiltonian(matrix=m, roles=roles, hermitian=False)


def test_greens_single_site_scalar():
    H = _single_site(5.0, 0.0, -2j)
    for e in (-3.0, 0.0, 5.0, 11.5):
        g = greens_function(H, e)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1.0 / (e - 5.0 + 2j), rel=1e-12)


def test_greens_residual(fitted_params):
    H = build_hamiltonian(fitted_params, include_ports=True)
    g = greens_function(H, 0.0)
    lhs = (0.0 * np.eye(20) - H.matrix) @ g
    assert np.max(np.abs(lhs - np.eye(20))) < 1e-9


def test_greens_poles_match_eigenvalues(rng):
    params = ModelParams(
        p=2, V=rng.uniform(10, 50), t1=rng.uniform(50, 150), t2=rng.uniform(50, 150),
        tQ=rng.uniform(20, 80), VQ=rng.uniform(-100, 100), VM=rng.uniform(-100, 100),
        sigmaL=-9j, sigmaR=-6j,
    )
    H = build_hamiltonian(params, include_ports=True)
    lam = np.linalg.eigvals(H.matrix)
    for e in lam:
        on_pole = abs(np.linalg.det(e * np.eye(12) - H.matrix))
        off_pole = abs(np.linalg.det((e + 1e-3) * np.eye(12) - H.matrix))
        assert on_pole < 1e-5 * off_pole


def test_single_site_lorentzian_line():
    # one site, two equal ports: |S_RL| is a Lorentzian of half-width Gamma,
    # unity on resonance where the reflection vanishes
    eps, gamma = 10.0, 9.0
    params = ModelParams(p=1, V=0.0, t1=1.0, t2=1.0, tQ=0.0, VQ=0.0,
                         sigmaL=-0.5j * gamma, sigmaR=-0.5j * gamma)
    H = _single_site(eps, -0.5j * gamma, -0.5j * gamma)
    for e in np.linspace(eps - 40, eps + 40, 41):
        s = s_matrix(params, e, H=H)
        expected_t = 1j * gamma / (e - eps + 1j * gamma)
        assert s.S_RL == pytest.approx(expected_t, abs=1e-12)
        assert s.S_LL == pytest.approx(expected_t - 1.0, abs=1e-12)
    on = s_matrix(params, eps, H=H)
    assert abs(on.S_RL) == pytest.approx(1.0, abs=1e-12)
    assert abs(on.S_LL) == pytest.approx(0.0, abs=1e-12)


def test_far_detuned_probe_is_transparent(fitted_params):
    s = s_matrix(fitted_params, 1e5)
    assert abs(s.S_RL) < 1e-3
    assert abs(s.S_LL) == pytest.approx(1.0, abs=1e-6)


def test_lossless_ports_rejected(fitted_params):
    with pytest.raises(ParameterError):
        s_matrix(fitted_params.with_(sigmaL=0j), 0.0)


def test_nineteen_transmission_peaks(fitted_params):
    far = fitted_params.with_(VQ=10 * max(fitted_params.t1, fitted_params.t2) + fitted_params.VM)
    grid = resonance_grid(far, 2001)
    H = build_hamiltonian(far, include_ports=True)
    values = np.array([abs(s_matrix(far, e, H=H).S_RL) for e in grid])
    peaks, _ = find_peaks(values, prominence=1e-3)
    assert len(peaks) == 19
    assert np.all(values[peaks] > 10 ** (-40 / 20))


def test_reciprocity_and_flux_conservation(rng):
    for _ in range(300):
        params = ModelParams(
            p=int(rng.integers(1, 4)),
            V=rng.uniform(0, 80), t1=rng.uniform(20, 300), t2=rng.uniform(20, 300),
            tQ=rng.uniform(0, 150), VQ=rng.uniform(-500, 500), VM=rng.uniform(-300, 300),
            sigmaL=complex(rng.uniform(-20, 20), -rng.uniform(0.5, 40)),
            sigmaR=complex(rng.uniform(-20, 20), -rng.uniform(0.5, 40)),
        )
        s = s_matrix(params, rng.uniform(-800, 800))
        assert abs(s.S_RL - s.S_LR) < 1e-10
        assert abs(s.S_LL) ** 2 + abs(s.S_RL) ** 2 == pytest.approx(1.0, abs=1e-8)
        assert abs(s.S_RR) ** 2 + abs(s.S_LR) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_map_constant_when_qubit_decoupled(fitted_params):
    # VQ grid offset from the E grid: the decoupled lossless qubit level is a
    # true pole of G exactly at E = VQ
    params = fitted_params.with_(tQ=0.0)
    smap = transmission_map(params, np.linspace(-50, 50, 41), np.linspace(-55.3, 55.7, 7))
    variation = np.max(smap.values, axis=1) - np.min(smap.values, axis=1)
    assert np.max(variation) < 1e-10


def test_map_anticrossing_two_branches(fitted_params):
    # at the anti-crossing centre the in-gap transmission shows two resonances
    from ricemele.edge_states import bidirectional_point

    vq = bidirectional_point(fitted_params)
    gap = far_detuned_gap(fitted_params)
    e_grid = np.linspace(gap.lower + 4, gap.upper - 4, 1201)
    smap = transmission_map(fitted_params, e_grid, [vq])
    peaks, _ = find_peaks(smap.values[:, 0], prominence=0.05)
    assert len(peaks) == 2


def test_reflection_magnitudes_equal_without_interior_loss(fitted_params):
    # a lossless two-port obeys |S_LL| = |S_RR| exactly (unitarity +
    # reciprocity), so the measured reflection asymmetry cannot appear in
    # this model; the directional physics lives in the port-resolved LDOS
    params = fitted_params.with_(VQ=-40.0)
    H = build_hamiltonian(params, include_ports=True)
    lam = np.linalg.eigvals(H.matrix)
    gap = far_detuned_gap(params)
    in_gap = np.sort_complex(lam[(lam.real > gap.lower) & (lam.real < gap.upper)])
    lower, upper = in_gap[0], in_gap[-1]

    for e0 in (lower, upper):
        es = np.linspace(e0.real - 10, e0.real + 10, 201)
        sll = np.array([abs(s_matrix(params, e, H=H).S_LL) for e in es])
        srr = np.array([abs(s_matrix(params, e, H=H).S_RR) for e in es])
        assert np.max(np.abs(sll - srr)) < 1e-10

    # leftward lower branch: spectral weight at port L, none at port R
    r = H.roles
    assert ldos(params, lower.real, r.portL, H=H) > 100 * ldos(params, lower.real, r.portR, H=H)
    assert ldos(params, upper.real, r.portR, H=H) > 5 * ldos(params, upper.real, r.portL, H=H)


def test_ldos_scalar_lorentzian():
    gamma_half = 9.0
    params = ModelParams(p=1, V=0.0, t1=1.0, t2=1.0, tQ=0.0, VQ=0.0,
                         sigmaL=-1j * gamma_half, sigmaR=-0j)
    H = _single_site(0.0, -1j * gamma_half, 0.0)
    for e in (-20.0, -3.0, 0.0, 7.0):
        expected = (gamma_half / np.pi) / (e**2 + gamma_half**2)
        assert ldos(params, e, 1, H=H) == pytest.approx(expected, rel=1e-12)
    assert ldos(params, 0.0, 1, H=H) == pytest.approx(1.0 / (np.pi * gamma_half), rel=1e-12)


def test_ldos_integrates_to_one_per_site():
    params = ModelParams(p=2, V=30.0, t1=120.0, t2=150.0, tQ=60.0, VQ=900.0, VM=80.0,
                         sigmaL=-15j, sigmaR=-15j)
    H = build_hamiltonian(params, include_ports=True)
    es = np.arange(-2500.0, 2500.0, 0.25)
    for site in (1, 2, 5):
        values = [ldos(params, e, site, H=H) for e in es]
        assert np.trapezoid(values, es) == pytest.approx(1.0, abs=0.02)


def test_ldos_shows_19_peak_structure(fitted_params):
    far = fitted_params.with_(VQ=10 * max(fitted_params.t1, fitted_params.t2) + fitted_params.VM)
    grid = resonance_grid(far, 2001)
    H = build_hamiltonian(far, include_ports=True)
    values = np.array([ldos(far, e, 1, H=H) for e in grid])
    peaks, _ = find_peaks(values, prominence=1e-5)
    assert len(peaks) == 19


def test_peaks_sit_on_poles(fitted_params):
    far = fitted_params.with_(VQ=10 * max(fitted_params.t1, fitted_params.t2) + fitted_params.VM)
    grid = resonance_grid(far, 2001)
    H = build_hamiltonian(far, include_ports=True)
    values = np.array([abs(s_matrix(far, e, H=H).S_RL) for e in grid])
    peaks, _ = find_peaks(values, prominence=1e-3)
    lam = np.linalg.eigvals(H.matrix)
    gamma = max(far.port_rates())
    for k in peaks:
        assert np.min(np.abs(grid[k] - lam.real)) < gamma


def test_map_axis_carries_f0(fitted_params):
    e_grid = np.linspace(-20, 20, 11)
    plain = transmission_map(fitted_params, e_grid, [0.0])
    shifted = transmission_map(fitted_params.with_(f0=4600.0), e_grid, [0.0])
    assert np.allclose(shifted.E_grid, plain.E_grid + 4600.0)
    assert np.allclose(shifted.values, plain.values)


def test_map_exports(tmp_path, fitted_params):
    smap = transmission_map(fitted_params, [0.0, 10.0], [-40.0, 0.0, 40.0])
    csv_path = tmp_path / "map.csv"
    json_path = tmp_path / "map.json"
    write_map_csv(csv_path, smap)
    write_map_header_json(json_path, smap, "map.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "E_MHz,VQ_MHz,value"
    assert len(lines) == 1 + 2 * 3
    import json

    header = json.loads(json_path.read_text())
    assert header["kind"] == "S_RL"
    assert header["n_E"] == 2 and header["n_VQ"] == 3


def test_map_csv_reads_back_fig3_resonance_grid(tmp_path, fitted_params):
    # the dense windows around the ~1e-6 MHz wide central-site resonance
    # need more than 10 significant digits of E to stay distinct
    grid = resonance_grid(fitted_params.far_detuned(), 2001)
    smap = SpectrumMap(E_grid=grid, VQ_grid=np.array([-40.0, 0.0]),
                       values=np.zeros((grid.size, 2)), kind="S_RL")
    csv_path = tmp_path / "map.csv"
    write_map_csv(csv_path, smap)
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    back = np.array([float(r[0]) for r in rows[::2]])
    assert np.array_equal(back, grid)
    assert np.unique(back).size == back.size


def test_map_validation(fitted_params):
    with pytest.raises(ParameterError):
        transmission_map(fitted_params, [], [0.0])
    with pytest.raises(ParameterError):
        transmission_map(fitted_params, [0.0], [0.0], kind="S_XX")
    with pytest.raises(ParameterError):
        SpectrumMap(E_grid=np.zeros(3), VQ_grid=np.zeros(2), values=np.zeros((2, 3)), kind="LDOS")
