import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize_scalar

from ricemele import (
    ModelParams,
    ParameterError,
    build_hamiltonian,
    directionality,
    eigenmodes,
    far_detuned_gap,
    in_gap_indices,
    working_points,
)
from ricemele.edge_states import bidirectional_point, edge_mode
from ricemele.model import site_roles


def _in_gap_modes(params):
    gap = far_detuned_gap(params)
    modes = eigenmodes(build_hamiltonian(params))
    return modes, in_gap_indices(modes, gap)


def test_symmetric_vector_is_bidirectional():
    roles = site_roles(1)
    vec = np.zeros(roles.dim, dtype=complex)
    vec[0] = vec[roles.portR - 1] = 1.0 / np.sqrt(2)
    rep = directionality(vec, roles, "left")
    assert rep.chi == pytest.approx(1.0)
    assert rep.fidelity == pytest.approx(0.5)
    assert rep.chi_dB == pytest.approx(0.0)


def test_zero_vector_rejected():
    roles = site_roles(1)
    with pytest.raises(ParameterError):
        directionality(np.zeros(roles.dim), roles, "left")
    with pytest.raises(ParameterError):
        directionality(np.ones(roles.dim), roles, "sideways")
    with pytest.raises(ParameterError):
        directionality(np.ones(3), roles, "left")


def test_fig1_leftward_state_has_zero_leakage(fig1_params):
    modes, idx = _in_gap_modes(fig1_params)
    k = max(idx, key=lambda i: modes.qubit_weight[i])
    rep = directionality(modes.eigenvectors[:, k], modes.roles, "left")
    assert rep.pop_right < 1e-8
    assert math.isinf(rep.chi)
    assert rep.fidelity == 1.0


def test_fig1_gap_centre_chi_values(fig1_params):
    # computed truth for VQ = 0: the two in-gap states lean 6:1 left and
    # 1:6 right; they leak on both sides but are not balanced
    modes, idx = _in_gap_modes(fig1_params.with_(VQ=0.0))
    assert len(idx) == 2
    chis = sorted(
        directionality(modes.eigenvectors[:, k], modes.roles, "left").chi for k in idx
    )
    assert chis[0] == pytest.approx(0.166, abs=0.02)
    assert chis[1] == pytest.approx(6.01, abs=0.5)
    assert chis[0] == pytest.approx(1.0 / chis[1], rel=1e-6)


def test_report_json_encodes_infinity(fig1_params):
    modes, idx = _in_gap_modes(fig1_params)
    k = max(idx, key=lambda i: modes.qubit_weight[i])
    rep = directionality(modes.eigenvectors[:, k], modes.roles, "left")
    payload = json.loads(json.dumps(rep.as_dict()))
    assert payload["chi"] is None
    assert payload["chi_dB"] is None
    assert payload["fidelity"] == 1.0


def test_working_points_fig1(fig1_params):
    vq_left, vq_right = working_points(fig1_params)
    assert vq_left == pytest.approx(-37.5, abs=0.5)
    assert vq_right == pytest.approx(+37.5, abs=0.5)


def test_working_points_require_modulation():
    params = ModelParams(p=4, V=0.0, t1=120.0, t2=150.0, tQ=60.0, VQ=0.0)
    with pytest.raises(ParameterError):
        working_points(params)


def test_working_points_fitted(fitted_params):
    # the unidirectional construction pins the working points at exactly +-V
    # regardless of VM (the central site is empty there)
    params = fitted_params.with_(sigmaL=0j, sigmaR=0j)
    vq_left, vq_right = working_points(params)
    assert vq_left == pytest.approx(-40.0, abs=0.5)
    assert vq_right == pytest.approx(+40.0, abs=0.5)


def test_chi_diverges_at_working_points(fig1_params):
    for vq, direction in ((-37.5, "left"), (37.5, "right")):
        modes, idx = _in_gap_modes(fig1_params.with_(VQ=vq))
        best = max(
            directionality(modes.eigenvectors[:, k], modes.roles, direction).chi
            for k in idx
        )
        assert best > 1e8


def test_chi_decreases_away_from_working_point(fig1_params):
    gap = far_detuned_gap(fig1_params)
    chis = []
    for delta in (2.0, 6.0, 10.0):
        modes = eigenmodes(build_hamiltonian(fig1_params.with_(VQ=-37.5 + delta)))
        idx = in_gap_indices(modes, gap)
        chis.append(max(
            directionality(modes.eigenvectors[:, k], modes.roles, "left").chi
            for k in idx
        ))
    assert chis[0] > chis[1] > chis[2]


def test_swap_symmetry_under_qubit_energy_flip(rng):
    # VM = 0: flipping VQ mirrors the populations (E -> -E plus reflection)
    base = ModelParams(p=3, V=22.0, t1=95.0, t2=130.0, tQ=48.0, VQ=0.0, VM=0.0)
    for _ in range(20):
        vq = rng.uniform(-120.0, 120.0)
        a = eigenmodes(build_hamiltonian(base.with_(VQ=vq)))
        b = eigenmodes(build_hamiltonian(base.with_(VQ=-vq)))
        n = len(a.eigenvalues)
        assert np.allclose(a.eigenvalues.real, -b.eigenvalues.real[::-1], atol=1e-8)
        for k in range(n):
            ra = directionality(a.eigenvectors[:, k], a.roles, "left")
            rb = directionality(b.eigenvectors[:, n - 1 - k], b.roles, "left")
            assert ra.pop_left == pytest.approx(rb.pop_right, abs=1e-8)
            assert ra.pop_M == pytest.approx(rb.pop_M, abs=1e-8)
            assert ra.pop_Q == pytest.approx(rb.pop_Q, abs=1e-8)


def test_bidirectional_point_sits_at_defect_energy(fig1_params, fitted_params):
    assert bidirectional_point(fig1_params) == pytest.approx(-0.26, abs=0.5)
    assert bidirectional_point(fitted_params) == pytest.approx(17.6, abs=1.0)


def test_bidirectional_point_solves_the_far_detuned_chain_once(monkeypatch, fitted_params):
    import ricemele.edge_states as edge_states
    import ricemele.spectral as spectral

    real, solved = spectral.eigenmodes, []

    def counted(H):
        solved.append(H)
        return real(H)

    monkeypatch.setattr(spectral, "eigenmodes", counted)
    monkeypatch.setattr(edge_states, "eigenmodes", counted)
    bidirectional_point(fitted_params)
    assert len(solved) == 1


@settings(max_examples=60, deadline=None)
@given(
    vec=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=3).map(lambda p: 4 * p + 4),
        elements=st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-6),
    direction=st.sampled_from(["left", "right"]),
)
def test_report_invariants(vec, direction):
    p = (len(vec) - 4) // 4
    roles = site_roles(p)
    rep = directionality(vec / np.linalg.norm(vec), roles, direction)
    assert rep.pop_left + rep.pop_right + rep.pop_M + rep.pop_Q == pytest.approx(1.0, abs=1e-10)
    if math.isfinite(rep.chi):
        assert rep.fidelity == pytest.approx(rep.chi / (1.0 + rep.chi), abs=1e-12)
        if rep.chi > 0:
            assert rep.chi_dB == pytest.approx(10.0 * math.log10(rep.chi), abs=1e-9)
    else:
        assert rep.fidelity == 1.0


def _best_in_gap_chi(params, vq, gap, direction):
    best = edge_mode(params.with_(VQ=float(vq)), gap, direction)
    return math.nan if best is None else best[2].chi


def _scanned_working_points(params, scan_points=161):
    """Oracle: the chi maximum per direction, from a scan across the
    far-detuned gap (2 % margins) and a bounded scalar refinement."""
    gap = far_detuned_gap(params)
    margin = 0.02 * (gap.upper - gap.lower)
    grid = np.linspace(gap.lower + margin, gap.upper - margin, scan_points)
    found = {}
    for direction in ("left", "right"):
        chis = np.array([_best_in_gap_chi(params, vq, gap, direction) for vq in grid])
        valid = np.isfinite(chis) | np.isposinf(chis)
        assert valid.any()
        # -log10(chi) is smooth through the divergence once capped
        objective = -np.log10(np.clip(np.where(valid, chis, 1e-300), 1e-300, 1e300))
        k = int(np.argmin(objective))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]

        def neg_log_chi(vq):
            chi = _best_in_gap_chi(params, vq, gap, direction)
            if math.isnan(chi):
                return 300.0
            return -math.log10(min(max(chi, 1e-300), 1e300))

        res = minimize_scalar(neg_log_chi, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-4})
        found[direction] = float(res.x)
    return found["left"], found["right"]


def test_working_points_are_exactly_minus_plus_V(fig1_params, fitted_params):
    assert working_points(fig1_params) == (-37.5, 37.5)
    assert working_points(fitted_params) == (-40.0, 40.0)


@pytest.mark.parametrize("name", ["fig1", "fitted"])
def test_working_points_match_scan_oracle(name, fig1_params, fitted_params):
    params = fig1_params if name == "fig1" else fitted_params.with_(sigmaL=0j, sigmaR=0j)
    exact = working_points(params)
    scanned = _scanned_working_points(params)
    assert np.max(np.abs(np.subtract(exact, scanned))) < 2e-5


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=8),
    t1=st.floats(10.0, 300.0),
    t2=st.floats(10.0, 300.0),
    V=st.floats(1.0, 100.0),
    sign=st.sampled_from([-1.0, 1.0]),
    VM=st.floats(-600.0, 600.0),
    tQ=st.floats(1.0, 200.0),
)
def test_working_points_give_infinite_chi(p, t1, t2, V, sign, VM, tQ):
    params = ModelParams(p=p, V=sign * V, t1=t1, t2=t2, tQ=tQ, VQ=0.0, VM=VM)
    gap = far_detuned_gap(params)
    vq_left, vq_right = working_points(params)
    assume(gap.lower < min(vq_left, vq_right) and max(vq_left, vq_right) < gap.upper)
    for vq, direction in ((vq_left, "left"), (vq_right, "right")):
        found = edge_mode(params.with_(VQ=vq), gap, direction)
        assert found is not None
        assert math.isinf(found[2].chi)
