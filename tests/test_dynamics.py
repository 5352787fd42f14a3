import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ricemele import (
    BlochParams,
    ModelParams,
    NotFoundError,
    ParameterError,
    bloch_rabi_trace,
    build_hamiltonian,
    dressed_decay_time,
    dressed_in_gap_mode,
    evolve_single_excitation,
    far_detuned_gap,
    infer_port_self_energy,
    integrated_port_emission,
)
from ricemele.dynamics import (
    DEFECTIVE_COND,
    TimeTrace,
    _bloch_generator,
    _in_gap_mode,
    _propagate,
    read_trace_csv,
    write_trace_csv,
)
from ricemele.errors import DataFormatError
from ricemele.model import RAD_PER_NS_PER_MHZ, LabeledHamiltonian, SiteRoles, site_roles

from conftest import best_quadrature, two_solve_in_gap_mode


def _single_site(z):
    roles = SiteRoles(dim=1, portL=1, portR=1, M=1, NL=1, NR=1, Q=1)
    return LabeledHamiltonian(np.array([[z]]), roles)


def _qubit_start(H):
    psi0 = np.zeros(H.roles.dim, dtype=complex)
    psi0[H.roles.Q - 1] = 1.0
    return psi0


def test_closed_system_evolution_is_unitary(fig1_params):
    H = build_hamiltonian(fig1_params, include_ports=True)  # sigma = 0
    t = np.linspace(0.0, 500.0, 101)
    trace = evolve_single_excitation(H, _qubit_start(H), t)
    sites = np.array([trace.channel(f"site_{i:02d}") for i in range(1, H.roles.dim + 1)])
    norms = np.sum(np.abs(sites) ** 2, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_single_site_exponential_decay():
    gamma = 12.0
    H = _single_site(-0.5j * gamma)
    t = np.linspace(0.0, 200.0, 401)
    trace = evolve_single_excitation(H, np.array([1.0 + 0j]), t)
    pop = np.abs(trace.channel("site_01")) ** 2
    rate_fit = np.polyfit(t, np.log(pop), 1)[0]
    lam = np.linalg.eigvals(H.matrix)[0]
    assert rate_fit == pytest.approx(-2.0 * RAD_PER_NS_PER_MHZ * abs(lam.imag), rel=1e-3)
    assert np.allclose(pop, np.exp(-RAD_PER_NS_PER_MHZ * gamma * t), rtol=1e-9, atol=1e-12)


def test_norm_decreases_monotonically(fitted_params):
    H = build_hamiltonian(fitted_params, include_ports=True)
    t = np.linspace(0.0, 800.0, 401)
    trace = evolve_single_excitation(H, _qubit_start(H), t)
    sites = np.array([trace.channel(f"site_{i:02d}") for i in range(1, 21)])
    norms = np.sum(np.abs(sites) ** 2, axis=0)
    assert np.all(np.diff(norms) <= 1e-12)


def test_emission_flux_accounting(fitted_params):
    H = build_hamiltonian(fitted_params, include_ports=True)
    t = np.linspace(0.0, 3000.0, 6001)
    trace = evolve_single_excitation(H, _qubit_start(H), t)
    sites = np.array([trace.channel(f"site_{i:02d}") for i in range(1, 21)])
    lost = 1.0 - np.sum(np.abs(sites[:, -1]) ** 2)
    wl, wr = integrated_port_emission(trace)
    emitted = RAD_PER_NS_PER_MHZ * (wl + wr)
    assert emitted == pytest.approx(lost, rel=0.01)


def test_qubit_population_tail_is_exponential(fig1_params):
    # moderate tQ keeps the second in-gap state nearly dark, so the qubit
    # tail is a single exponential once the beat (averaged out below) and the
    # band transient are gone
    params = fig1_params.with_(tQ=30.0, sigmaL=-18j, sigmaR=-18j)
    H = build_hamiltonian(params, include_ports=True)
    gap = far_detuned_gap(params)
    from ricemele import eigenmodes, in_gap_indices

    modes = eigenmodes(H)
    idx = in_gap_indices(modes, gap)
    e_gap, _ = dressed_in_gap_mode(params, gap)
    t = np.linspace(0.0, 2700.0, 2701)
    trace = evolve_single_excitation(H, _qubit_start(H), t)
    pop = np.abs(trace.channel(f"site_{H.roles.dim:02d}")) ** 2

    beats = np.min(np.diff(np.sort(modes.eigenvalues[idx].real)))
    window = max(int(round(1e3 / beats)), 1)
    smooth = np.convolve(pop, np.ones(window) / window, mode="valid")
    ts = t[window // 2: window // 2 + len(smooth)]
    sel = (ts >= 500.0) & (ts <= 2500.0)
    logp = np.log(smooth[sel])
    slope, intercept = np.polyfit(ts[sel], logp, 1)
    line = slope * ts[sel] + intercept
    r2 = 1.0 - np.sum((logp - line) ** 2) / np.sum((logp - logp.mean()) ** 2)
    assert r2 > 0.999
    assert slope == pytest.approx(-2.0 * RAD_PER_NS_PER_MHZ * abs(e_gap.imag), rel=0.02)


def test_bare_qubit_emission_ratio(fitted_params):
    # computed truth: a bare qubit-site excitation also populates band modes,
    # which leak to both sides; the full-integral ratio is ~7, far below the
    # dressed-mode directionality
    H = build_hamiltonian(fitted_params, include_ports=True)
    t = np.linspace(0.0, 4000.0, 4001)
    trace = evolve_single_excitation(H, _qubit_start(H), t)
    wl, wr = integrated_port_emission(trace)
    assert 4.0 < wl / wr < 12.0


def test_dressed_mode_emission_is_unidirectional(fitted_params):
    gap = far_detuned_gap(fitted_params)
    _, mode = dressed_in_gap_mode(fitted_params, gap)
    H = build_hamiltonian(fitted_params, include_ports=True)
    t = np.linspace(0.0, 4000.0, 4001)
    trace = evolve_single_excitation(H, mode / np.linalg.norm(mode), t)
    wl, wr = integrated_port_emission(trace)
    assert wl / wr > 100.0


def test_evolution_input_validation(fitted_params):
    H = build_hamiltonian(fitted_params, include_ports=True)
    with pytest.raises(ParameterError):
        evolve_single_excitation(H, np.zeros(20, dtype=complex), [0.0, 1.0])
    with pytest.raises(ParameterError):
        evolve_single_excitation(H, np.ones(3, dtype=complex), [0.0, 1.0])
    with pytest.raises(ParameterError):
        evolve_single_excitation(H, _qubit_start(H), [])


def test_dressed_decay_closed_system_is_infinite(fitted_params):
    assert math.isinf(dressed_decay_time(fitted_params.with_(sigmaL=0j, sigmaR=0j)))


def test_dressed_decay_shrinks_with_port_coupling(fitted_params):
    values = []
    for g in np.linspace(4.0, 44.0, 10):
        values.append(dressed_decay_time(fitted_params.with_(sigmaL=-1j * g, sigmaR=-1j * g)))
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_dressed_decay_fitted_value(fitted_params):
    t1 = dressed_decay_time(fitted_params)
    assert 55.0 < t1 < 220.0
    assert t1 == pytest.approx(123.35, abs=1.0)


def test_no_in_gap_mode_raises(fitted_params):
    from ricemele.spectral import BandGap

    empty = BandGap(lower=1e5, upper=1e5 + 1.0, tol=0.0)
    with pytest.raises(NotFoundError):
        dressed_in_gap_mode(fitted_params, empty)


def _assert_same_mode(got, want):
    """Equal (energy, vector) pairs, bit for bit."""
    assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def _shared_and_two_solve(params):
    """The in-gap mode selected on the eig pair that propagated the lattice
    trace, dressed_in_gap_mode's, and the two-solve oracle's (None if the gap
    is empty)."""
    gap = far_detuned_gap(params)
    H = build_hamiltonian(params, include_ports=True)
    evolve_single_excitation(H, _qubit_start(H), [0.0, 1.0])
    want = two_solve_in_gap_mode(params, gap)
    if want is None:
        with pytest.raises(NotFoundError):
            _in_gap_mode(H, gap)
        with pytest.raises(NotFoundError):
            dressed_in_gap_mode(params, gap)
        return None
    _assert_same_mode(_in_gap_mode(H, gap), want)
    _assert_same_mode(dressed_in_gap_mode(params, gap), want)
    _assert_same_mode(dressed_in_gap_mode(params), want)
    return want


def test_shared_selection_is_the_two_solve_mode_on_fig5(fitted_params):
    assert _shared_and_two_solve(fitted_params) is not None


@settings(max_examples=120, deadline=None)
@given(
    p=st.integers(1, 12),
    t1=st.floats(10.0, 300.0),
    t2=st.floats(10.0, 300.0),
    v=st.floats(-100.0, 100.0),
    vm=st.floats(-600.0, 600.0),
    tq=st.floats(0.0, 200.0),
    vq=st.floats(-150.0, 150.0),
    gamma_l=st.floats(0.01, 60.0),
    gamma_r=st.floats(0.01, 60.0),
    re_l=st.floats(-20.0, 20.0),
)
def test_shared_selection_is_the_two_solve_mode(p, t1, t2, v, vm, tq, vq, gamma_l, gamma_r, re_l):
    params = ModelParams(p=p, V=v, t1=t1, t2=t2, tQ=tq, VQ=vq, VM=vm,
                         sigmaL=complex(re_l, -gamma_l), sigmaR=-1j * gamma_r)
    _shared_and_two_solve(params)


def test_emit_runs_one_eig_of_the_port_dressed_chain(monkeypatch, tmp_path):
    from ricemele.cli import main

    real, shapes = np.linalg.eig, []

    def counted(m):
        shapes.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(np.linalg, "eig", counted)
    for p in (4, 7):
        shapes.clear()
        cfg = tmp_path / f"p{p}.cfg"
        cfg.write_text(f"p = {p}\n")
        assert main(["emit", "--preset", "fig5", "--config", str(cfg),
                     "--out", str(tmp_path / f"p{p}")]) == 0
        n = 4 * p + 4
        assert shapes.count((n, n)) == 1
        # the rest are the Bloch trace's two 4 x 4 generators
        assert sorted(shapes) == [(4, 4), (4, 4), (n, n)]


def test_decoupled_qubit_still_sees_defect_lifetime(fitted_params):
    # with tQ = 0 the in-gap mode is the bare waveguide defect state; its
    # lifetime is what the operation reports (qubit weight is zero)
    t1 = dressed_decay_time(fitted_params.with_(tQ=0.0, VQ=5000.0))
    assert 20.0 < t1 < 200.0


def test_infer_self_energy_round_trip(fitted_params):
    for g in (5.0, 10.0, 20.0, 40.0):
        base = fitted_params.with_(sigmaL=-1j * g, sigmaR=-1j * g)
        target = dressed_decay_time(base)
        sigma = infer_port_self_energy(fitted_params, target)
        assert abs(sigma.imag + g) < 1e-3 * g


def test_infer_self_energy_limits(fitted_params):
    assert infer_port_self_energy(fitted_params, math.inf) == 0j
    with pytest.raises(NotFoundError):
        infer_port_self_energy(fitted_params, 1e-3)
    with pytest.raises(ParameterError):
        infer_port_self_energy(fitted_params, -5.0)


def test_bloch_undriven_relaxation():
    bp = BlochParams(rabi_freq=0.0, T1=300.0, T2=400.0)
    t = np.linspace(0.0, 1500.0, 751)
    trace = bloch_rabi_trace(bp, t, drive_on_until=0.0, s0=(0.0, 0.0, 1.0))
    sz = trace.channel("sigma_z").real
    assert np.max(np.abs((sz + 1.0) - 2.0 * np.exp(-t / 300.0))) < 1e-6


def test_bloch_t1_limited_free_decay_ratio():
    t1 = 400.0
    bp = BlochParams(rabi_freq=25.0, T1=t1, T2=2.0 * t1)
    t = np.linspace(0.0, 3000.0, 3001)
    trace = bloch_rabi_trace(bp, t, drive_on_until=610.0)
    free = t > 650.0
    sz_dev = np.abs(trace.channel("sigma_z").real[free] + 1.0)
    sm = np.abs(trace.channel("sigma_minus")[free])
    tau_z = -1.0 / np.polyfit(t[free], np.log(sz_dev), 1)[0]
    tau_m = -1.0 / np.polyfit(t[free], np.log(sm), 1)[0]
    assert tau_z == pytest.approx(t1, rel=0.01)
    assert tau_m == pytest.approx(2.0 * t1, rel=0.01)


def test_bloch_coherence_extrema_at_inversion_zeros():
    bp = BlochParams(rabi_freq=25.0, T1=5000.0, T2=10000.0, w_left=1.0, w_right=0.0)
    t = np.linspace(0.0, 200.0, 2001)
    trace = bloch_rabi_trace(bp, t, drive_on_until=200.0)
    sz = trace.channel("sigma_z").real
    q = best_quadrature(trace.channel("sigma_minus"))
    dt = t[1] - t[0]
    ext = [i for i in range(1, len(t) - 1)
           if abs(q[i]) >= abs(q[i - 1]) and abs(q[i]) >= abs(q[i + 1]) and abs(q[i]) > 0.2]
    zeros = t[:-1][np.diff(np.sign(sz)) != 0]
    assert ext
    for i in ext:
        assert np.min(np.abs(zeros - t[i])) <= dt + 1e-9


def test_bloch_port_channels_scale_with_weights():
    bp = BlochParams(rabi_freq=20.0, T1=800.0, T2=900.0, w_left=1.0, w_right=0.0)
    t = np.linspace(0.0, 400.0, 801)
    trace = bloch_rabi_trace(bp, t, drive_on_until=400.0)
    assert np.all(trace.channel("port_R") == 0)
    assert np.allclose(trace.channel("port_L"), trace.channel("sigma_minus"))


def test_bloch_vector_stays_in_sphere(rng):
    for _ in range(5):
        bp = BlochParams(
            rabi_freq=rng.uniform(1.0, 60.0),
            T1=rng.uniform(50.0, 2000.0),
            T2=float(rng.uniform(10.0, 100.0)),
            detuning=rng.uniform(-30.0, 30.0),
        )
        t = np.linspace(0.0, 1000.0, 501)
        trace = bloch_rabi_trace(bp, t, drive_on_until=rng.uniform(0.0, 1000.0))
        sm = trace.channel("sigma_minus")
        sz = trace.channel("sigma_z").real
        radius = 4.0 * np.abs(sm) ** 2 + sz**2
        assert np.max(radius) <= 1.0 + 1e-9


def test_bloch_params_validation():
    with pytest.raises(ParameterError):
        BlochParams(rabi_freq=10.0, T1=-1.0, T2=1.0)
    with pytest.raises(ParameterError):
        BlochParams(rabi_freq=10.0, T1=100.0, T2=300.0)
    with pytest.raises(ParameterError):
        BlochParams(rabi_freq=10.0, T1=100.0, T2=100.0, w_left=0.7, w_right=0.7)


def ramsey_trace(detuning: float, wait_grid, T2: float) -> np.ndarray:
    """Excited-state probability after an X_pi/2 - wait - X_pi/2 sequence
    (the closed form the Ramsey tests below pin).

    P_e(tau) = (1 + exp(-tau/T2) cos(k * detuning * tau)) / 2.
    """
    tau = np.asarray(wait_grid, dtype=float)
    if np.any(tau < 0):
        raise ParameterError("wait times must be non-negative")
    if T2 <= 0:
        raise ParameterError("T2 must be positive")
    envelope = np.exp(-tau / T2) if not math.isinf(T2) else np.ones_like(tau)
    return 0.5 * (1.0 + envelope * np.cos(RAD_PER_NS_PER_MHZ * detuning * tau))


def test_ramsey_no_detuning_no_decay():
    tau = np.linspace(0.0, 500.0, 251)
    pe = ramsey_trace(0.0, tau, math.inf)
    assert np.allclose(pe, 1.0)


def test_ramsey_period_is_inverse_detuning():
    tau = np.linspace(0.0, 400.0, 4001)
    pe = ramsey_trace(10.0, tau, math.inf)
    assert pe[0] == pytest.approx(1.0)
    assert pe[np.argmin(np.abs(tau - 50.0))] == pytest.approx(0.0, abs=1e-6)
    assert pe[np.argmin(np.abs(tau - 100.0))] == pytest.approx(1.0, abs=1e-6)


def test_ramsey_fringe_frequency_matches_detuning():
    tau = np.arange(0.0, 2000.0, 1.0)
    for delta in (-20.0, -7.0, 5.0, 12.0, 20.0):
        pe = ramsey_trace(delta, tau, math.inf)
        spectrum = np.abs(np.fft.rfft(pe - pe.mean()))
        freqs = np.fft.rfftfreq(len(tau), d=1e-3)  # MHz
        assert freqs[np.argmax(spectrum)] == pytest.approx(abs(delta), abs=0.5)


def test_ramsey_validation():
    with pytest.raises(ParameterError):
        ramsey_trace(1.0, [-1.0], 100.0)
    with pytest.raises(ParameterError):
        ramsey_trace(1.0, [0.0], 0.0)


def test_trace_csv_round_trip(tmp_path):
    bp = BlochParams(rabi_freq=15.0, T1=200.0, T2=300.0, w_left=0.6, w_right=0.3)
    t = np.linspace(0.0, 100.0, 26)
    trace = bloch_rabi_trace(bp, t, drive_on_until=50.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    assert set(back.channels) == set(trace.channels)
    for name in trace.channels:
        assert np.allclose(back.channel(name), trace.channel(name), atol=1e-9)


def test_trace_header_naming_a_channel_twice_is_a_data_error(tmp_path):
    # the two pairs would otherwise read as the one channel a = 3 + 4j
    path = tmp_path / "trace.csv"
    path.write_text("t_ns,a_re,a_im,a_re,a_im\n0,1,2,3,4\n")
    with pytest.raises(DataFormatError, match="names a channel twice") as err:
        read_trace_csv(path)
    assert err.value.line == 1


def _write_trace_csv_writer(path, trace):
    """write_trace_csv as first written: csv.writer, one formatted cell at a time."""
    names = list(trace.channels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t_ns"]
        for name in names:
            header += [f"{name}_re", f"{name}_im"]
        writer.writerow(header)
        for i, ti in enumerate(trace.t_grid):
            row = [f"{ti:.10g}"]
            for name in names:
                z = complex(trace.channels[name][i])
                row += [f"{z.real:.10g}", f"{z.imag:.10g}"]
            writer.writerow(row)


def test_trace_csv_bytes_match_csv_writer(tmp_path, fitted_params):
    H = build_hamiltonian(fitted_params, include_ports=True)
    emission = evolve_single_excitation(H, _qubit_start(H), np.linspace(0.0, 300.0, 301))
    odd = TimeTrace(
        t_grid=np.arange(5),
        channels={
            "a,b": np.array([-0.0, 1e-300, -2.5e17, np.inf, np.nan]),
            "c": np.array([1 + 2j, -0.0j, 1 / 3, -1e-5j, 123456789.123]),
        },
    )
    for trace in (emission, odd):
        write_trace_csv(tmp_path / "new.csv", trace)
        _write_trace_csv_writer(tmp_path / "old.csv", trace)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_near_defective_threshold_catches_cond_1e10():
    # -0.01 [[1, 1], [0, 1 + eps]] has cond(U) ~ 2 / eps = 1e10. The eig path
    # is off by 2.4e-7 on this grid; scipy's expm by 7e-9
    eps = 2e-10
    m = -0.01 * np.array([[1.0, 1.0], [0.0, 1.0 + eps]])
    assert DEFECTIVE_COND <= np.linalg.cond(np.linalg.eig(m)[1]) < 1e12
    t = np.linspace(0.0, 2000.0, 41)
    with pytest.warns(UserWarning, match="near-defective"):
        got = _propagate(m, np.linalg.eig(m), 1.0, np.array([0.0, 1.0]), t)
    # exp(m t) (0, 1) for upper-triangular m, its divided difference through expm1
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    want = np.array([b * np.exp(a * t) * np.expm1((d - a) * t) / (d - a), np.exp(d * t)])
    assert np.max(np.abs(got - want)) < 5e-8


def test_fig5_generators_stay_on_the_eig_path(fitted_params):
    # emit --preset fig5: the port-dressed chain, and the Bloch generator with
    # the drive on and off at T1 of the dressed mode and T2 = 2 T1
    H = build_hamiltonian(fitted_params, include_ports=True)
    t1 = dressed_decay_time(fitted_params)
    generators = [H.matrix] + [_bloch_generator(RAD_PER_NS_PER_MHZ * rabi, 0.0, t1, 2.0 * t1)
                               for rabi in (25.0, 0.0)]
    for m in generators:
        assert np.linalg.cond(np.linalg.eig(m)[1]) < 10.0


def _jordan_like(p=1):
    # (10 - 5j) I plus 3 on the superdiagonal: cond of the eigenvector matrix ~1e105
    roles = site_roles(p)
    m = (10.0 - 5.0j) * np.eye(roles.dim) + 3.0 * np.eye(roles.dim, k=1)
    return LabeledHamiltonian(m, roles)


def _assert_fallback_matches_expm(t):
    H = _jordan_like()
    psi0 = _qubit_start(H)
    with pytest.warns(UserWarning, match="near-defective"):
        trace = evolve_single_excitation(H, psi0, t)
    for i, ti in enumerate(t):
        got = np.array([trace.channel(f"site_{j:02d}")[i] for j in range(1, H.roles.dim + 1)])
        want = expm(-1j * RAD_PER_NS_PER_MHZ * H.matrix * ti) @ psi0
        assert np.max(np.abs(got - want)) < 1e-12


def test_near_defective_fallback_matches_expm():
    _assert_fallback_matches_expm(np.linspace(0.0, 50.0, 101))


def test_near_defective_fallback_on_nonuniform_grid():
    _assert_fallback_matches_expm(np.array([0.0, 1.0, 3.0, 7.5]))


# Oracles for the exact Bloch propagator. Both integrate the Bloch equations
# d/dt (sx, sy, sz) = (-delta sy - sx/T2, delta sx + omega sz - sy/T2,
# -omega sy - (sz + 1)/T1) with the drive on while t < drive_on_until.


def _bloch_rhs(s, omega, delta, T1, T2):
    sx, sy, sz = s
    return np.array(
        [
            -delta * sy - sx / T2,
            delta * sx + omega * sz - sy / T2,
            -omega * sy - (sz + 1.0) / T1,
        ]
    )


def _rk4_bloch(bp, t, drive_on_until, s0=(0.0, 0.0, -1.0)):
    """Fixed-step RK4 with substeps of at most 0.02 / (fastest rate)."""
    omega = RAD_PER_NS_PER_MHZ * bp.rabi_freq
    delta = RAD_PER_NS_PER_MHZ * bp.detuning
    h_max = 0.02 / max(abs(omega), abs(delta), 1.0 / bp.T1, 1.0 / bp.T2)
    s = np.asarray(s0, dtype=float)
    out = np.empty((3, t.size))
    out[:, 0] = s
    now = t[0]
    for i in range(1, t.size):
        while now < t[i] - 1e-12:
            # do not step across the drive switch-off
            edge = drive_on_until if now < drive_on_until < t[i] else t[i]
            n_sub = max(int(math.ceil((edge - now) / h_max)), 1)
            h = (edge - now) / n_sub
            om = omega if now < drive_on_until else 0.0
            for _ in range(n_sub):
                k1 = _bloch_rhs(s, om, delta, bp.T1, bp.T2)
                k2 = _bloch_rhs(s + 0.5 * h * k1, om, delta, bp.T1, bp.T2)
                k3 = _bloch_rhs(s + 0.5 * h * k2, om, delta, bp.T1, bp.T2)
                k4 = _bloch_rhs(s + h * k3, om, delta, bp.T1, bp.T2)
                s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            now = edge
        out[:, i] = s
    return out


def _expm_bloch(bp, t, drive_on_until, s0=(0.0, 0.0, -1.0)):
    """One 4x4 matrix exponential of the augmented generator per interval."""
    delta = RAD_PER_NS_PER_MHZ * bp.detuning

    def generator(omega):
        g = np.zeros((4, 4))
        g[0, 0] = g[1, 1] = -1.0 / bp.T2
        g[0, 1], g[1, 0] = -delta, delta
        g[1, 2], g[2, 1] = omega, -omega
        g[2, 2] = g[2, 3] = -1.0 / bp.T1
        return g

    g_on, g_off = generator(RAD_PER_NS_PER_MHZ * bp.rabi_freq), generator(0.0)
    s = np.append(np.asarray(s0, dtype=float), 1.0)
    out = np.empty((3, t.size))
    out[:, 0] = s[:3]
    for i in range(1, t.size):
        a, b = t[i - 1], t[i]
        if a < drive_on_until < b:
            s = expm(g_off * (b - drive_on_until)) @ expm(g_on * (drive_on_until - a)) @ s
        else:
            s = expm((g_on if b <= drive_on_until else g_off) * (b - a)) @ s
        out[:, i] = s[:3]
    return out


def _channels_from(bp, s):
    sigma_minus = 0.5 * (s[0] - 1j * s[1])
    return {
        "sigma_z": s[2],
        "sigma_minus": sigma_minus,
        "port_L": math.sqrt(bp.w_left) * sigma_minus,
        "port_R": math.sqrt(bp.w_right) * sigma_minus,
    }


def _max_channel_error(trace, bp, s):
    want = _channels_from(bp, s)
    return max(float(np.max(np.abs(trace.channel(k) - v))) for k, v in want.items())


@pytest.mark.parametrize(
    "bp, drive_on_until",
    [
        # fig5: T1 of the fitted device's dressed mode, T2 = 2 T1
        (BlochParams(rabi_freq=25.0, T1=370.0, T2=740.0, w_left=0.9, w_right=0.05), 600.0),
        (BlochParams(rabi_freq=40.0, T1=150.0, T2=90.0, detuning=-12.0), 333.3),
        (BlochParams(rabi_freq=5.0, T1=2000.0, T2=50.0, detuning=25.0, w_left=0.3), 1500.0),
    ],
)
def test_bloch_trace_matches_rk4_oracle(bp, drive_on_until):
    t = np.linspace(0.0, 1500.0, 3001)
    trace = bloch_rabi_trace(bp, t, drive_on_until=drive_on_until)
    assert _max_channel_error(trace, bp, _rk4_bloch(bp, t, drive_on_until)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    rabi=st.floats(0.0, 60.0),
    detuning=st.floats(-30.0, 30.0),
    T1=st.floats(10.0, 5000.0),
    t2_frac=st.floats(1e-3, 1.0),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    switch=st.sampled_from(["before", "inside", "after"]),
)
def test_bloch_trace_matches_expm_oracle(rabi, detuning, T1, t2_frac, uniform, seed, switch):
    bp = BlochParams(rabi_freq=rabi, T1=T1, T2=2.0 * T1 * t2_frac, detuning=detuning)
    rng = np.random.default_rng(seed)
    if uniform:
        t = np.linspace(0.0, 800.0, 161)
    else:
        t = np.cumsum(rng.uniform(0.1, 10.0, 161)) - 5.0
    drive_on_until = {
        "before": t[0] - 1.0,
        "inside": rng.uniform(t[0], t[-1]),
        "after": t[-1] + 1.0,
    }[switch]
    trace = bloch_rabi_trace(bp, t, drive_on_until=drive_on_until)
    assert _max_channel_error(trace, bp, _expm_bloch(bp, t, drive_on_until)) < 1e-9


def test_bloch_trace_at_critical_damping():
    # omega = |1/T1 - 1/T2| / 2 makes the driven y-z block a Jordan block;
    # the eigenbasis then has cond ~1e8, below DEFECTIVE_COND, so no warning
    T1, T2 = 300.0, 600.0
    omega = abs(1.0 / T1 - 1.0 / T2) / 2.0
    bp = BlochParams(rabi_freq=omega / RAD_PER_NS_PER_MHZ, T1=T1, T2=T2)
    t = np.linspace(0.0, 3000.0, 1501)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = bloch_rabi_trace(bp, t, drive_on_until=1200.0)
    assert _max_channel_error(trace, bp, _expm_bloch(bp, t, 1200.0)) < 1e-7


def test_bloch_trace_below_the_old_stepping_floor():
    # RK4 needed steps of 0.02 * T1 = 2e-7 ns here and refused to run
    bp = BlochParams(rabi_freq=25.0, T1=1e-5, T2=1e-5)
    t = np.linspace(0.0, 100.0, 201)
    trace = bloch_rabi_trace(bp, t, drive_on_until=50.0, s0=(0.0, 0.0, 1.0))
    assert np.max(np.abs(trace.channel("sigma_z")[1:] + 1.0)) <= 1e-11
