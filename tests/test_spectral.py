import numpy as np
import pytest

from ricemele import (
    InsufficientModesError,
    ModelParams,
    ParameterError,
    band_gap,
    build_hamiltonian,
    eigenmodes,
    far_detuned_gap,
    in_gap_indices,
    qubit_coupling_flags,
    sweep_qubit_energy,
    three_site_surrogate,
)
from ricemele.model import LabeledHamiltonian, SiteRoles
from ricemele.spectral import ModeSet, write_sweep_csv


def _toy_hamiltonian(matrix, hermitian=True):
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    roles = SiteRoles(dim=n, portL=1, portR=n, M=1, NL=1, NR=n, Q=n)
    return LabeledHamiltonian(matrix=matrix, roles=roles, hermitian=hermitian)


def test_two_site_closed_form():
    v, t = 13.0, 7.0
    modes = eigenmodes(_toy_hamiltonian([[-v, -t], [-t, +v]]))
    expected = np.sqrt(v**2 + t**2)
    assert np.allclose(modes.eigenvalues.real, [-expected, +expected], atol=1e-12)


def test_p1_uniform_chain_brute_force():
    # explicit 8x8 with V = VM = 0, tQ = 0: compare against a literal matrix
    t1, t2 = 4.0, 9.0
    m = np.zeros((8, 8))
    for (a, b), t in {
        (0, 1): t2, (1, 2): t1, (2, 3): t1, (3, 4): t1, (4, 5): t1, (5, 6): t2,
    }.items():
        m[a, b] = m[b, a] = -t
    brute = np.linalg.eigvalsh(m)
    params = ModelParams(p=1, V=0.0, t1=t1, t2=t2, tQ=0.0, VQ=0.0, VM=0.0)
    modes = eigenmodes(build_hamiltonian(params))
    assert np.allclose(modes.eigenvalues.real, brute, atol=1e-9)
    # waveguide spectrum symmetric about zero (one zero mode from the qubit row too)
    wg = np.sort(brute[np.abs(brute) > 1e-12])
    assert np.max(np.abs(wg + wg[::-1])) < 1e-10


def test_eigenvector_invariants(fig1_params):
    modes = eigenmodes(build_hamiltonian(fig1_params))
    assert np.max(np.abs(modes.eigenvalues.imag)) < 1e-9
    norms = np.linalg.norm(modes.eigenvectors, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    overlap = modes.eigenvectors.conj().T @ modes.eigenvectors
    np.fill_diagonal(overlap, 0.0)
    assert np.max(np.abs(overlap)) < 1e-9
    assert np.all(modes.participation_ratio >= 1.0)


def test_trace_preserved(fig1_params, fitted_params):
    for params in (fig1_params, fitted_params):
        H = build_hamiltonian(params, include_ports=True)
        modes = eigenmodes(H)
        tr = np.trace(H.matrix)
        assert abs(np.sum(modes.eigenvalues) - tr) < 1e-8 * max(abs(tr), 1.0)


def test_ports_push_spectrum_into_lower_half_plane(rng):
    for _ in range(100):
        params = ModelParams(
            p=int(rng.integers(1, 4)),
            V=rng.uniform(0, 60), t1=rng.uniform(20, 200), t2=rng.uniform(20, 200),
            tQ=rng.uniform(0, 100), VQ=rng.uniform(-300, 300), VM=rng.uniform(-200, 200),
            sigmaL=complex(rng.uniform(-10, 10), -rng.uniform(0, 30)),
            sigmaR=complex(rng.uniform(-10, 10), -rng.uniform(0, 30)),
        )
        modes = eigenmodes(build_hamiltonian(params, include_ports=True))
        assert np.max(modes.eigenvalues.imag) < 1e-9


def test_fig1_two_states_in_gap(fig1_params):
    modes = eigenmodes(build_hamiltonian(fig1_params))
    gap = band_gap(modes, fig1_params)
    assert gap.lower < 0.0 < gap.upper
    assert not gap.degenerate
    assert len(gap.in_gap_mode_indices) == 2
    # at VQ = -V the qubit-dominant in-gap state sits at -V
    k = max(gap.in_gap_mode_indices, key=lambda i: modes.qubit_weight[i])
    assert abs(modes.eigenvalues[k].real - (-37.5)) < 0.5


def test_fig1_far_detuned_single_defect_state(fig1_params):
    gap = far_detuned_gap(fig1_params)
    assert len(gap.in_gap_mode_indices) == 1
    assert gap.lower < -37.5 and gap.upper > 37.5


def test_gap_degenerate_for_uniform_chain():
    params = ModelParams(p=5, V=0.0, t1=100.0, t2=100.0, tQ=0.0, VQ=9999.0)
    gap = band_gap(eigenmodes(build_hamiltonian(params)), params)
    assert gap.degenerate


def test_fitted_far_detuned_single_localized_state(fitted_params):
    vq_far = 10 * max(fitted_params.t1, fitted_params.t2) + fitted_params.VM
    params = fitted_params.with_(VQ=vq_far, sigmaL=0j, sigmaR=0j)
    modes = eigenmodes(build_hamiltonian(params))
    gap = band_gap(modes, params)
    assert len(gap.in_gap_mode_indices) == 1
    (k,) = gap.in_gap_mode_indices
    assert modes.localized[k]
    # its energy sits inside the gap, well away from both edges
    e = modes.eigenvalues[k].real
    assert gap.lower + 5 < e < gap.upper - 5


def test_gap_insufficient_modes():
    roles = SiteRoles(dim=3, portL=1, portR=3, M=2, NL=1, NR=3, Q=3)
    vecs = np.eye(3, dtype=complex)
    modes = ModeSet(
        eigenvalues=np.array([-1.0, 0.0, 1.0], dtype=complex),
        eigenvectors=vecs,
        qubit_weight=np.zeros(3),
        central_weight=np.zeros(3),
        participation_ratio=np.ones(3),
        localized=np.zeros(3, dtype=bool),
        roles=roles,
    )
    params = ModelParams(p=1, V=1.0, t1=1.0, t2=1.0, tQ=0.0, VQ=0.0)
    with pytest.raises(InsufficientModesError):
        band_gap(modes, params)


def test_coupling_flags_alternate_at_v_zero():
    for p in range(1, 7):
        params = ModelParams(p=p, V=0.0, t1=120.0, t2=150.0, tQ=0.0, VQ=12345.6, VM=0.0)
        modes = eigenmodes(build_hamiltonian(params))
        band = np.flatnonzero(modes.qubit_weight < 0.5)
        flags = qubit_coupling_flags(modes, modes.roles, 1e-10)[band]
        assert all(flags[i] != flags[i + 1] for i in range(len(flags) - 1))
        assert int(np.sum(~flags)) == 2 * p + 1


def test_coupling_flags_fig1_triple_at_gap(fig1_params):
    # with V != 0 the band modes alternate except for a characteristic run of
    # three consecutive coupled modes straddling the gap (the localized defect
    # state plus the two band-edge modes); 2p modes stay strictly dark
    params = fig1_params.with_(tQ=0.0, VQ=98765.4)
    modes = eigenmodes(build_hamiltonian(params))
    band = np.flatnonzero(modes.qubit_weight < 0.5)
    flags = qubit_coupling_flags(modes, modes.roles, 1e-6)[band]
    pattern = "".join("x" if f else "o" for f in flags)
    assert pattern.count("xxx") == 1 and "xxxx" not in pattern
    assert "oo" not in pattern
    assert pattern.count("o") == 2 * params.p


def test_coupling_flags_trivial_single_site():
    roles = SiteRoles(dim=1, portL=1, portR=1, M=1, NL=1, NR=1, Q=1)
    modes = eigenmodes(LabeledHamiltonian(np.array([[2.0 + 0j]]), roles, True))
    assert qubit_coupling_flags(modes, roles, 0.5).tolist() == [True]


def test_sweep_far_detuned_invariance(fig1_params):
    from ricemele.spectral import far_detuned_gap

    gap = far_detuned_gap(fig1_params)
    sweep = sweep_qubit_energy(fig1_params, [-1e4, 1e4])
    deep = []
    for i in (0, 1):
        e = sweep.eigenvalues[i][sweep.in_gap[i]].real
        assert len(e) >= 1
        deep.append(e[np.argmin(np.abs(e - gap.centre))])
    assert abs(deep[0] - deep[1]) < 0.1


def test_sweep_anticrossing_minimum_inside_gap(fig1_params):
    from ricemele.spectral import far_detuned_gap

    gap = far_detuned_gap(fig1_params)
    grid = np.linspace(-150.0, 150.0, 61)
    sweep = sweep_qubit_energy(fig1_params, grid)
    splits = []
    for i in range(len(grid)):
        e = np.sort(sweep.eigenvalues[i][sweep.in_gap[i]].real)
        splits.append(np.min(np.diff(e)) if len(e) >= 2 else np.inf)
    k = int(np.argmin(splits))
    assert np.isfinite(splits[k])
    assert gap.lower < grid[k] < gap.upper
    assert abs(grid[k]) < 10.0  # anti-crossing centred near the defect state


def test_sweep_vs_three_site_surrogate(fig1_params, fitted_params):
    # the surrogate reproduces the scale of the anti-crossing, not its
    # precise value: measured deviations are ~29% (ideal) and ~19% (fitted)
    for params in (fig1_params, fitted_params.with_(sigmaL=0j, sigmaR=0j)):
        from ricemele.spectral import far_detuned_gap

        gap = far_detuned_gap(params)
        grid = np.linspace(gap.lower + 2, gap.upper - 2, 121)
        sweep = sweep_qubit_energy(params, grid)
        full = np.inf
        for i in range(len(grid)):
            e = np.sort(sweep.eigenvalues[i][sweep.in_gap[i]].real)
            if len(e) >= 2:
                full = min(full, float(np.min(np.diff(e))))
        surr = np.inf
        for vq in grid:
            h = three_site_surrogate(params.with_(VQ=float(vq)))
            e = np.linalg.eigvalsh(h.real)
            surr = min(surr, float(np.min(np.diff(e))))
        assert np.isfinite(full) and surr > 0
        assert abs(surr - full) / full < 0.35


def test_sweep_branch_continuity(fig1_params):
    grid = np.arange(-60.0, 61.0, 1.0)
    sweep = sweep_qubit_energy(fig1_params, grid)
    moves = np.abs(np.diff(sweep.eigenvalues.real, axis=0))
    assert np.max(moves) < 5.0


def test_sweep_empty_grid():
    params = ModelParams(p=1, V=1.0, t1=1.0, t2=2.0, tQ=1.0, VQ=0.0)
    with pytest.raises(ParameterError):
        sweep_qubit_energy(params, [])


def test_sweep_csv_format(tmp_path, fig1_params):
    sweep = sweep_qubit_energy(fig1_params, [-37.5, 0.0, 37.5])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep)
    lines = path.read_text().splitlines()
    assert lines[0] == "VQ_MHz,mode_index,re_E_MHz,im_E_MHz,qubit_weight,central_weight,in_gap"
    assert len(lines) == 1 + 3 * 44
    in_gap_rows = [l for l in lines[1:] if l.startswith("-37.5,") and l.endswith(",1")]
    assert len(in_gap_rows) == 2


def test_match_branches_uses_overlap_at_degeneracy():
    from ricemele.spectral import match_branches

    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    prev = np.array([1.0, 1.0 + 1e-9], dtype=complex)
    prev_vecs = np.column_stack([e1, e2])
    cur = np.array([0.9, 1.1], dtype=complex)
    cur_vecs = np.column_stack([e2, e1])  # the branches crossed
    order = match_branches(prev, cur, prev_vecs, cur_vecs)
    assert order.tolist() == [1, 0]
    # without vectors the pairing is plain sorted order
    assert match_branches(prev, cur).tolist() == [0, 1]
