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
from ricemele.edge_states import bidirectional_point, working_point_state
from ricemele.model import _waveguide_tridiagonal, site_roles

from conftest import dense_edge_mode


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
    best = dense_edge_mode(params.with_(VQ=float(vq)), gap, direction)
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
        found = dense_edge_mode(params.with_(VQ=vq), gap, direction)
        assert found is not None
        assert math.isinf(found[2].chi)


def _check_against_dense(params, direction):
    """working_point_state against a dense eigh of the chain at the working
    point: an eigenvector at E = -V (+V) to 1e-14 max|E| whose opposite side
    and M are exactly 0, and, where no other level lies within 1e-9 max|E|
    of E, the dense rank as mode_index and the dense populations. Those agree
    to 1e-12 plus the dense vector's own error, 2 n eps max|E| over the
    distance to the next level (Davis-Kahan): on 6000 random draws the three
    with a level within 4e-5 max|E| of E differed by up to 1.9e-11. Returns
    (mode_index, vector, whether the rank was compared)."""
    index, vec = working_point_state(params, direction)
    energy = -params.V if direction == "left" else params.V
    H = build_hamiltonian(params.with_(VQ=energy))
    modes = eigenmodes(H)
    scale = np.abs(modes.eigenvalues.real).max()
    assert np.all(np.isfinite(vec)) and abs(np.sum(vec ** 2) - 1.0) <= 1e-15
    assert np.linalg.norm(H.matrix @ vec - energy * vec) <= 1e-14 * scale
    opposite = H.roles.right_slice() if direction == "left" else H.roles.left_slice()
    assert np.all(vec[opposite] == 0.0) and vec[H.roles.M - 1] == 0.0
    distance = np.abs(modes.eigenvalues.real - energy)
    next_level = np.sort(distance)[1]   # the first is the state itself
    compared = next_level > 1e-9 * scale
    if compared:
        assert index == int(np.argmin(distance))
        dense = np.abs(modes.eigenvectors[:, index]) ** 2
        rounding = 2 * len(vec) * np.finfo(float).eps * scale / next_level
        assert np.max(np.abs(vec ** 2 - dense)) <= 1e-12 + rounding
    return index, vec, compared


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 50),
    v=st.floats(0.01, 100.0),
    v_sign=st.sampled_from([-1.0, 1.0]),
    t1=st.floats(0.1, 300.0),
    t2=st.floats(0.1, 300.0),
    tq=st.floats(0.1, 200.0),
    vm=st.floats(-600.0, 600.0),
    direction=st.sampled_from(["left", "right"]),
)
def test_working_point_state_is_the_dense_eigenvector(p, v, v_sign, t1, t2, tq, vm, direction):
    params = ModelParams(p=p, V=v_sign * v, t1=t1, t2=t2, tQ=tq, VQ=0.0, VM=vm)
    _check_against_dense(params, direction)


@pytest.mark.parametrize("V", [37.5, -37.5])
@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("t1, t2, tQ, support", [
    (0.0, 150.0, 62.5, "N"),          # t1 = 0: the site next to M alone
    (120.0, 0.0, 62.5, "port"),       # t2 = 0: the port site alone
    (120.0, 150.0, 0.0, "Q"),         # tQ = 0: the bare qubit
    (120.0, 120.0, 62.5, "half+Q"),   # t1 = t2: a zero mode of equal weights
    (150.0, 120.0, 62.5, "half+Q"),   # t2 < t1: decays from the port
    (120.0, 150.0, 62.5, "half+Q"),   # t2 > t1: grows toward M
])
def test_working_point_state_branches(V, direction, t1, t2, tQ, support):
    params = ModelParams(p=3, V=V, t1=t1, t2=t2, tQ=tQ, VQ=0.0)
    index, vec, compared = _check_against_dense(params, direction)
    assert compared
    assert index == 7 + (V < 0 if direction == "left" else V > 0)
    roles = site_roles(3)
    side = [1, 3, 5, 7] if direction == "left" else [15, 13, 11, 9]   # from the port
    sites = {"N": side[-1:], "port": side[:1], "Q": [roles.Q],
             "half+Q": side + [roles.Q]}[support]
    assert sorted(np.flatnonzero(vec) + 1) == sorted(sites)
    if support == "half+Q":
        chain = vec[np.subtract(side, 1)]
        assert chain[1:] / chain[:-1] == pytest.approx(np.full(3, -t2 / t1), rel=1e-14)


@pytest.mark.parametrize("changes", [{}, {"p": 3, "t2": 120.0}, {"p": 3, "tQ": 0.0}])
def test_working_point_state_is_the_searched_mode(fig1_params, changes):
    # the mode that the dense search picked for spectrum's report before,
    # on fig1 and on the t1 = t2 and tQ = 0 chains at p = 3
    params = fig1_params.with_(**changes)
    gap = far_detuned_gap(params)
    for direction, vq in zip(("left", "right"), working_points(params)):
        index, vec = working_point_state(params, direction)
        modes, k, rep = dense_edge_mode(params.with_(VQ=vq), gap, direction)
        assert index == k
        mine = directionality(vec, modes.roles, direction)
        for name in ("pop_left", "pop_right", "pop_M", "pop_Q"):
            assert getattr(mine, name) == pytest.approx(getattr(rep, name), abs=1e-14)
        assert math.isinf(mine.chi) and math.isinf(rep.chi)


def test_working_point_state_stays_finite_on_the_longest_chain():
    # t2/t1 = 30 at p = 2047: the zero mode spans 30^2047 between the port
    # and M, far beyond double range, so only its scaling from the larger
    # end keeps every entry finite; the residual is the tridiagonal's
    params = ModelParams(p=2047, V=37.5, t1=5.0, t2=150.0, tQ=62.5, VQ=0.0)
    roles = site_roles(params.p)
    d, e = _waveguide_tridiagonal(params.p, params.V, params.t1, params.t2, params.VM)
    for direction, energy in (("left", -37.5), ("right", 37.5)):
        index, vec = working_point_state(params, direction)
        assert index == 2 * params.p + 1 + (direction == "right")
        assert np.all(np.isfinite(vec)) and abs(np.sum(vec ** 2) - 1.0) <= 1e-15
        chain = vec[:roles.portR]
        h_vec = np.append(d * chain, energy * vec[-1] - params.tQ * vec[roles.M - 1])
        h_vec[:roles.portR - 1] += e * chain[1:]
        h_vec[1:roles.portR] += e * chain[:-1]
        h_vec[roles.M - 1] -= params.tQ * vec[-1]
        scale = np.abs(d).max() + 2 * np.abs(e).max() + params.tQ
        assert np.linalg.norm(h_vec - energy * vec) <= 1e-14 * scale
        assert vec[roles.M - 1] == 0.0
