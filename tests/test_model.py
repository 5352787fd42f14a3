import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricemele import ModelParams, ParameterError, build_hamiltonian, site_roles
from ricemele.errors import DataFormatError
from ricemele.model import params_from_config, params_to_config, parse_config


def test_site_roles_p4():
    r = site_roles(4)
    assert (r.M, r.NL, r.NR, r.Q, r.dim) == (10, 9, 11, 20, 20)


def test_site_roles_p1():
    r = site_roles(1)
    assert (r.M, r.NL, r.NR, r.portR, r.Q, r.dim) == (4, 3, 5, 7, 8, 8)


def test_site_roles_p10():
    r = site_roles(10)
    assert (r.M, r.Q, r.dim) == (22, 44, 44)


def test_site_roles_ordering():
    for p in range(1, 11):
        r = site_roles(p)
        assert r.portL < r.NL < r.M < r.NR < r.portR < r.Q
        assert r.dim == r.Q


def test_site_roles_rejects_bad_p():
    with pytest.raises(ParameterError):
        site_roles(0)
    with pytest.raises(ParameterError):
        ModelParams(p=0, V=1.0, t1=1.0, t2=1.0, tQ=1.0, VQ=0.0)


def test_p1_matrix_against_hand_enumeration():
    # 8-site instance written out longhand: diagonal
    # (-V, +V, -V, VM, +V, -V, +V, VQ), bonds t2,t1,t1,t1,t1,t2 plus (M,Q)=tQ
    V, t1, t2, tQ, VQ, VM = 7.0, 2.0, 3.0, 5.0, 11.0, 13.0
    expected = np.zeros((8, 8))
    np.fill_diagonal(expected, [-V, +V, -V, VM, +V, -V, +V, VQ])
    for (a, b), t in {
        (0, 1): t2, (1, 2): t1, (2, 3): t1, (3, 4): t1,
        (4, 5): t1, (5, 6): t2, (3, 7): tQ,
    }.items():
        expected[a, b] = expected[b, a] = -t
    H = build_hamiltonian(ModelParams(p=1, V=V, t1=t1, t2=t2, tQ=tQ, VQ=VQ, VM=VM))
    assert np.array_equal(H.matrix, expected.astype(complex))
    assert H.hermitian


def test_hermitian_is_exact():
    params = ModelParams(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=-40.0, VM=590.0)
    m = build_hamiltonian(params).matrix
    assert np.array_equal(m, m.conj().T)


def test_bond_counts_by_matrix_scan():
    # distinct prime couplings so every bond is attributable by value
    t1, t2, tQ = 3.0, 5.0, 7.0
    for p in range(1, 11):
        params = ModelParams(p=p, V=1.0, t1=t1, t2=t2, tQ=tQ, VQ=4.0, VM=2.0)
        m = build_hamiltonian(params).matrix.real
        pairs = [(i, j) for i in range(m.shape[0]) for j in range(i + 1, m.shape[0]) if m[i, j] != 0]
        by_value = {}
        for i, j in pairs:
            by_value.setdefault(-m[i, j], []).append((i, j))
        assert len(by_value[t2]) == 2 * p
        assert len(by_value[t1]) == 2 * p + 2
        assert len(by_value[tQ]) == 1
        assert len(pairs) == 4 * p + 3


def test_p4_fitted_matrix_shape_and_bonds(fitted_params):
    H = build_hamiltonian(fitted_params.with_(sigmaL=0j, sigmaR=0j))
    assert H.matrix.shape == (20, 20)
    off = H.matrix.copy()
    np.fill_diagonal(off, 0.0)
    # 18 waveguide bonds + 1 qubit bond, each stored twice
    assert np.count_nonzero(off) == 2 * 19


def test_qubit_decouples_at_tq_zero():
    base = ModelParams(p=3, V=25.0, t1=90.0, t2=120.0, tQ=0.0, VQ=500.0, VM=10.0)
    H = build_hamiltonian(base)
    q = H.roles.Q - 1
    row = H.matrix[q].copy()
    row[q] = 0.0
    assert np.all(row == 0)
    wg = lambda vq: np.linalg.eigvalsh(build_hamiltonian(base.with_(VQ=vq)).matrix[:q, :q])
    assert np.allclose(wg(500.0), wg(-3000.0), atol=0.0)


def test_mirror_asymmetry_of_diagonal():
    params = ModelParams(p=3, V=20.0, t1=80.0, t2=100.0, tQ=40.0, VQ=0.0, VM=5.0)
    H = build_hamiltonian(params)
    r = H.roles
    d = np.real(np.diag(H.matrix))
    left = d[r.left_slice()]
    right = d[r.right_slice()]
    assert not np.array_equal(left[::-1], right)

    flat = build_hamiltonian(params.with_(V=0.0))
    d0 = np.real(np.diag(flat.matrix))
    assert np.array_equal(d0[r.left_slice()][::-1], d0[r.right_slice()])


def test_chiral_spectrum_at_v_zero():
    # V = VM = VQ = 0 leaves a bipartite hopping graph: spectrum symmetric about 0
    params = ModelParams(p=4, V=0.0, t1=110.0, t2=140.0, tQ=70.0, VQ=0.0, VM=0.0)
    e = np.linalg.eigvalsh(build_hamiltonian(params).matrix)
    assert np.max(np.abs(e + e[::-1])) < 1e-10


def test_ports_enter_diagonal(fitted_params):
    H = build_hamiltonian(fitted_params, include_ports=True)
    r = H.roles
    assert H.matrix[r.portL - 1, r.portL - 1] == complex(-40.0, -18.0)
    assert H.matrix[r.portR - 1, r.portR - 1] == complex(+40.0, -18.0)
    assert not H.hermitian


def _loop_hamiltonian(params, include_ports=False):
    """Site-by-site builder that build_hamiltonian replaced; kept as the reference."""
    roles = site_roles(params.p)
    n = roles.dim
    h = np.zeros((n, n), dtype=complex)
    p, V = params.p, params.V

    for m in range(1, roles.NL + 1):
        h[m - 1, m - 1] = -V if m % 2 == 1 else +V
    h[roles.M - 1, roles.M - 1] = params.VM
    h[roles.NR - 1, roles.NR - 1] = +V
    for k, m in enumerate(range(roles.NR + 1, roles.portR + 1)):
        h[m - 1, m - 1] = -V if k % 2 == 0 else +V
    h[roles.Q - 1, roles.Q - 1] = params.VQ

    def link(a, b, t):
        h[a - 1, b - 1] = -t
        h[b - 1, a - 1] = -t

    for l in range(1, p + 1):
        link(2 * l - 1, 2 * l, params.t2)
        link(2 * l, 2 * l + 1, params.t1)
    link(roles.NL, roles.M, params.t1)
    link(roles.M, roles.NR, params.t1)
    link(roles.NR, roles.NR + 1, params.t1)
    for l in range(1, p + 1):
        link(roles.NR + 2 * l - 1, roles.NR + 2 * l, params.t2)
    for l in range(1, p):
        link(roles.NR + 2 * l, roles.NR + 2 * l + 1, params.t1)
    link(roles.M, roles.Q, params.tQ)

    if include_ports:
        h[roles.portL - 1, roles.portL - 1] += complex(params.sigmaL)
        h[roles.portR - 1, roles.portR - 1] += complex(params.sigmaR)
    return h


@pytest.mark.parametrize("include_ports", [False, True])
def test_build_matches_loop_reference(include_ports):
    rng = np.random.default_rng(118)
    for p in range(1, 9):
        for _ in range(25):
            v, t1, t2, tq, vq, vm = rng.uniform(-300.0, 300.0, 6)
            params = ModelParams(
                p=p, V=v, t1=abs(t1), t2=abs(t2), tQ=abs(tq), VQ=vq, VM=vm,
                sigmaL=complex(rng.normal(0.0, 5.0), -rng.uniform(0.0, 30.0)),
                sigmaR=complex(rng.normal(0.0, 5.0), -rng.uniform(0.0, 30.0)),
            )
            H = build_hamiltonian(params, include_ports=include_ports)
            assert np.array_equal(H.matrix, _loop_hamiltonian(params, include_ports))
            assert H.hermitian is not include_ports


def test_non_finite_parameters_rejected():
    base = dict(p=2, V=1.0, t1=1.0, t2=2.0, tQ=0.5, VQ=0.0)
    for name in ("p", "V", "t1", "t2", "tQ", "VQ", "VM", "f0", "sigmaL", "sigmaR"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=f"{name} must be finite"):
                ModelParams(**{**base, name: bad})
    with pytest.raises(ParameterError):
        ModelParams(**base, sigmaL=complex(0.0, -math.inf))


def test_far_detuned_parking_energy():
    params = ModelParams(p=2, V=30.0, t1=100.0, t2=140.0, tQ=50.0, VQ=-30.0, VM=7.0)
    assert params.far_detuned().VQ == 10.0 * 140.0 + 7.0
    assert params.with_(V=-500.0).far_detuned().VQ == 10.0 * 500.0 + 7.0
    tiny = params.with_(V=0.1, t1=0.2, t2=0.3)
    assert tiny.far_detuned().VQ == 10.0 + 7.0
    assert params.far_detuned().with_(VQ=params.VQ) == params


def test_passive_port_validation():
    with pytest.raises(ParameterError):
        ModelParams(p=1, V=1.0, t1=1.0, t2=1.0, tQ=0.0, VQ=0.0, sigmaL=+1j)
    with pytest.raises(ParameterError):
        ModelParams(p=1, V=1.0, t1=-1.0, t2=1.0, tQ=0.0, VQ=0.0)


def test_config_roundtrip(fitted_params):
    text = params_to_config(fitted_params)
    assert "e" not in text.replace("sigmaL_re", "").replace("sigmaR_re", "")
    back = params_from_config(text)
    assert back == fitted_params


def test_config_parse_errors():
    with pytest.raises(DataFormatError):
        parse_config("p 4")
    with pytest.raises(DataFormatError) as err:
        parse_config("p = 4\np = 5")
    assert "line 2" in str(err.value)
    with pytest.raises(DataFormatError):
        params_from_config("p = 4\nV = 40")  # missing required keys
    with pytest.raises(DataFormatError):
        params_from_config("p = 4\nV = forty\nt1 = 1\nt2 = 1\ntQ = 0\nVQ = 0\nVM = 0")


def test_config_ignores_comments_and_blanks():
    raw = parse_config("# header\n\np = 2   # pairs\nV = 1.5\n")
    assert raw == {"p": "2", "V": "1.5"}


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=6),
    v=st.floats(-200, 200, allow_nan=False),
    t1=st.floats(0, 300, allow_nan=False),
    t2=st.floats(0, 300, allow_nan=False),
    tq=st.floats(0, 200, allow_nan=False),
    vq=st.floats(-1000, 1000, allow_nan=False),
    vm=st.floats(-800, 800, allow_nan=False),
)
def test_construction_properties(p, v, t1, t2, tq, vq, vm):
    params = ModelParams(p=p, V=v, t1=t1, t2=t2, tQ=tq, VQ=vq, VM=vm)
    H = build_hamiltonian(params)
    m = H.matrix
    assert m.shape == (4 * p + 4, 4 * p + 4)
    assert np.array_equal(m, m.conj().T)
    r = H.roles
    d = np.real(np.diag(m))
    assert d[r.M - 1] == vm
    assert d[r.Q - 1] == vq
    assert d[r.NR - 1] == v
    assert d[0] == -v
    # only nearest-neighbour waveguide bonds and the (M, Q) bond
    off = np.abs(m.copy())
    np.fill_diagonal(off, 0.0)
    allowed = np.zeros_like(off, dtype=bool)
    for i in range(4 * p + 2):
        allowed[i, i + 1] = allowed[i + 1, i] = True
    allowed[r.M - 1, r.Q - 1] = allowed[r.Q - 1, r.M - 1] = True
    assert not np.any(off[~allowed])
