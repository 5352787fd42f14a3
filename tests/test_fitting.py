import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricemele import (
    FitObservations,
    ModelParams,
    NumericalError,
    ParameterError,
    Peak,
    PeakSet,
    bootstrap_fit,
    extract_peaks,
    fit_hamiltonian,
    model_anticrossing_gap,
    model_peak_frequencies,
    resonance_grid,
    s_matrix,
)
from ricemele.fitting import (
    FIT_NAMES, STAGE1_FREE, _theta, _tq_bound, _waveguide_patterns, _waveguide_spectra,
)
from ricemele.model import gap_edges, site_roles
from ricemele.scattering import _prominent_maxima

from conftest import heuristic_block_gap


def _block(params, bounds=None):
    """(evals, psi_m, lower, upper) of the waveguide block of params, a stack
    of one row for _arrow_gaps, as model_anticrossing_gap solves it, between
    the gap edges bounds or, by default, those of model.gap_edges."""
    lam, _, z = _waveguide_spectra(_waveguide_patterns(params.p), _theta(params))
    lower, upper = bounds or gap_edges(lam, params.V, params.t1, params.t2)
    return lam, z[:, site_roles(params.p).M - 1], np.atleast_1d(lower), np.atleast_1d(upper)


def _starts(point, rows):
    """The stage-1 starts of rows resamples: the point estimate in each."""
    return np.tile(_theta(point), (rows, 1))


def test_extract_peaks_sinusoid():
    x = np.linspace(0.0, 1.0, 201)
    peaks = extract_peaks(x, np.sin(2 * np.pi * x), 0.1)
    assert len(peaks) == 1
    assert peaks.peaks[0].frequency == pytest.approx(0.25, abs=1e-3)


def test_extract_peaks_two_lorentzians():
    x = np.linspace(-60.0, 60.0, 481)
    width, c1, c2 = 5.0, -12.5, 12.5
    y = width**2 / ((x - c1) ** 2 + width**2) + width**2 / ((x - c2) ** 2 + width**2)
    peaks = extract_peaks(x, y, 0.2)
    assert len(peaks) == 2
    found = sorted(p.frequency for p in peaks.peaks)
    assert found[0] == pytest.approx(c1, abs=0.5)
    assert found[1] == pytest.approx(c2, abs=0.5)


def test_extract_peaks_on_model_spectrum(fitted_params):
    far = fitted_params.far_detuned()
    grid = resonance_grid(far, 2001)
    values = np.array([abs(s_matrix(far, e).S_RL) for e in grid])
    peaks = extract_peaks(grid, values, 1e-3)
    assert len(peaks) == 19
    # the numpy peak search picks the samples scipy's find_peaks picks
    from scipy.signal import find_peaks

    want, _ = find_peaks(values, prominence=1e-3)
    np.testing.assert_array_equal(_prominent_maxima(values, 1e-3), want)


def test_extract_peaks_validation():
    with pytest.raises(ParameterError):
        extract_peaks([0.0, 1.0], [1.0, 2.0], 0.1)
    with pytest.raises(ParameterError):
        extract_peaks([0.0, 1.0, 2.0], [1.0, 2.0], 0.1)
    assert len(extract_peaks([0, 1, 2], [0.0, 0.0, 0.0], 0.1)) == 0
    with pytest.raises(ParameterError):
        extract_peaks([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], 0.1)


@pytest.mark.parametrize("y, prominence, want", [
    ([3, 1, 2, 1, 3], 0.5, [2]),              # the end samples are higher, but not interior
    ([0, 2, 2, 2, 2, 0], 1.0, [2]),           # an even plateau counts at its lower middle
    ([0, 2, 2, 3, 0], 1.0, [3]),              # a plateau that rises again is no maximum
    ([2, 2, 1, 0], 0.0, []),                  # nor is one that touches an end
    ([0, 5, 1, 4, 0, 6, 0], 4.0, [1, 5]),     # 4 stands only 3 above its higher base, 1
    ([0, 5, 1, 4, 0, 6, 0], 3.0, [1, 3, 5]),
])
def test_prominent_maxima_rule(y, prominence, want):
    np.testing.assert_array_equal(_prominent_maxima(np.array(y, dtype=float), prominence), want)


# values drawn from a few levels make plateaus, ties and maxima at the ends common
_levels = st.lists(st.integers(0, 4).map(float), min_size=1, max_size=60)
_floats = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60)


@settings(max_examples=400, deadline=None)
@given(y=st.one_of(_levels, _floats), prominence=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]))
def test_prominent_maxima_match_find_peaks(y, prominence):
    from scipy.signal import find_peaks

    y = np.array(y)
    want, _ = find_peaks(y, prominence=prominence)
    np.testing.assert_array_equal(_prominent_maxima(y, prominence), want)


TRUTH = ModelParams(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=0.0, VM=590.0, f0=4600.0)
GAP_VQS = (-20.0, 0.0, 17.6, 35.0, 55.0)
INITIAL = TRUTH.with_(t1=200.0, t2=300.0, V=30.0, VM=550.0, tQ=100.0, f0=4550.0)


def _synthetic(jitter, seed):
    r = np.random.default_rng(seed)
    freqs = model_peak_frequencies(TRUTH) + r.normal(0.0, jitter, 4 * TRUTH.p + 3)
    peaks = PeakSet([Peak(0.0, float(f), 1.0) for f in freqs])
    gaps = [
        (vq, model_anticrossing_gap(TRUTH, vq) + r.normal(0.0, jitter)) for vq in GAP_VQS
    ]
    return FitObservations(peaks=peaks, gaps=gaps)


def test_fit_noiseless_round_trip():
    obs = _synthetic(0.0, 0)
    result = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)
    for name in ("t1", "t2", "V", "VM", "tQ", "f0"):
        assert getattr(result.best, name) == pytest.approx(getattr(TRUTH, name), abs=0.1)
    assert result.residual_rms < 0.05
    assert result.converged


def test_fit_constant_shift_moves_only_f0():
    obs = _synthetic(0.0, 0)
    shifted = PeakSet([Peak(p.flux_or_vq, p.frequency + 500.0, p.amplitude) for p in obs.peaks.peaks])
    a = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)
    b = fit_hamiltonian(shifted, obs.gaps, INITIAL, seed=1)
    assert b.best.f0 - a.best.f0 == pytest.approx(500.0, abs=0.1)
    for name in ("t1", "t2", "V", "VM", "tQ"):
        assert getattr(b.best, name) == pytest.approx(getattr(a.best, name), abs=0.1)


@settings(max_examples=5, deadline=None)
@given(order=st.permutations(range(19)))
def test_fit_is_permutation_invariant(order):
    obs = _synthetic(2.0, 3)
    shuffled = PeakSet([obs.peaks.peaks[i] for i in order])
    a = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)
    b = fit_hamiltonian(shuffled, obs.gaps, INITIAL, seed=1)
    for name in ("t1", "t2", "V", "VM", "tQ", "f0"):
        assert getattr(a.best, name) == getattr(b.best, name)


def test_fit_objective_no_worse_than_initial():
    obs = _synthetic(2.0, 7)
    result = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)

    def rms_at(params):
        freqs = np.sort(obs.peaks.frequencies())
        model = model_peak_frequencies(params.with_(f0=0.0))
        res = freqs - model - np.mean(freqs - model)
        sse = float(res @ res)
        for vq, size in obs.gaps:
            sse += (size - model_anticrossing_gap(params, vq)) ** 2
        return np.sqrt(sse / (len(freqs) + len(obs.gaps)))

    assert result.residual_rms <= rms_at(INITIAL) + 1e-9


def test_fit_respects_fixed_mask():
    obs = _synthetic(1.0, 11)
    result = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, fixed=("V", "f0"), seed=1)
    assert result.best.V == INITIAL.V
    assert result.best.f0 == INITIAL.f0
    with pytest.raises(ParameterError):
        fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, fixed=("bogus",))


def test_fit_from_integer_valued_params_is_the_float_fit():
    # ModelParams accepts ints; the fit must not build its parameter stack as ints
    obs = _synthetic(2.0, 3)
    as_int = ModelParams(p=4, V=30, t1=200, t2=300, tQ=100, VQ=0, VM=550, f0=4550)
    as_float = ModelParams(p=4, V=30.0, t1=200.0, t2=300.0, tQ=100.0, VQ=0.0, VM=550.0,
                           f0=4550.0)
    for fixed in ((), ("V", "f0")):
        assert (fit_hamiltonian(obs.peaks, obs.gaps, as_int, fixed=fixed, seed=1)
                == fit_hamiltonian(obs.peaks, obs.gaps, as_float, fixed=fixed, seed=1))


def test_fit_requires_matching_peak_count():
    obs = _synthetic(0.0, 0)
    short = PeakSet(obs.peaks.peaks[:5])
    with pytest.raises(ParameterError):
        fit_hamiltonian(short, obs.gaps, INITIAL)
    with pytest.raises(ParameterError):
        fit_hamiltonian(obs.peaks, [], INITIAL)  # tQ free but no gaps


def test_bootstrap_zero_noise_is_degenerate():
    obs = _synthetic(0.0, 0)
    result = bootstrap_fit(obs, INITIAL, n=120, seed=2)
    for name in ("t1", "t2", "V", "VM", "tQ"):
        width = result.percentile_97_5[name] - result.percentile_2_5[name]
        assert width < 0.5


def test_bootstrap_widths_grow_with_noise():
    mean_widths = []
    for jitter in (0.5, 2.0, 6.0):
        obs = _synthetic(jitter, 5)
        result = bootstrap_fit(obs, INITIAL, n=150, seed=2)
        widths = [
            result.percentile_97_5[n] - result.percentile_2_5[n]
            for n in ("t1", "t2", "V", "VM", "tQ")
        ]
        mean_widths.append(np.mean(widths))
    assert mean_widths[0] < mean_widths[1] < mean_widths[2]


def test_bootstrap_percentiles_are_ordered():
    obs = _synthetic(2.0, 9)
    result = bootstrap_fit(obs, INITIAL, n=150, seed=4)
    for name in ("t1", "t2", "V", "VM", "tQ", "f0"):
        assert result.percentile_2_5[name] <= result.percentile_97_5[name]
    assert result.n_bootstrap == 150


def test_bootstrap_requires_minimum_samples():
    obs = _synthetic(1.0, 0)
    with pytest.raises(ParameterError):
        bootstrap_fit(obs, INITIAL, n=50)


def test_bootstrap_aborts_when_refits_keep_failing(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(1.0, 13)
    point = fitting.fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)
    real_fit_block, calls = fitting._fit_block, []

    def flaky(*args, **kwargs):
        table, sse1, sse2 = real_fit_block(*args, **kwargs)
        calls.append(len(table))
        # call 1 is the point fit; in the bootstrap's blocks every other resample fails
        if len(calls) > 1:
            table[1::2] = np.nan
        return table, sse1, sse2

    monkeypatch.setattr(fitting, "_fit_block", flaky)
    with pytest.raises(fitting.NumericalError, match="50/100 bootstrap refits failed"):
        fitting.bootstrap_fit(obs, point.best, n=100, seed=1)
    assert calls == [fitting.N_STARTS, 100]


def test_bootstrap_counts_gap_rule_failure_as_one_failed_resample(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(1.0, 13)
    real_gap_edges = fitting.gap_edges
    calls = {"n": 0}

    def failing(energies, *args):
        lower, upper = real_gap_edges(energies, *args)
        # one count per row: rows 1..5 are the point fit's converged starts;
        # rows 6..17 are the first 12 of 100 resamples, which get no gap edges
        row = calls["n"] + 1 + np.arange(np.size(lower)).reshape(np.shape(lower))
        calls["n"] += np.size(lower)
        fail = (row >= 6) & (row <= 17)
        return np.where(fail, np.nan, lower), np.where(fail, np.nan, upper)

    monkeypatch.setattr(fitting, "gap_edges", failing)
    # every other resample of these data fits
    with pytest.raises(fitting.NumericalError, match="12/100 bootstrap refits failed"):
        fitting.bootstrap_fit(obs, INITIAL, n=100, seed=1)
    assert calls["n"] == 105


def test_gap_model_edges_of_fitted_device(fitted_params):
    # the bare waveguide block, not the far-detuned chain: a parked qubit
    # moves these edges to (-73.496, 149.261) MHz
    _, _, lower, upper = _block(fitted_params)
    assert lower[0] == pytest.approx(-73.2806931319502, abs=1e-12)
    assert upper[0] == pytest.approx(149.39367238654432, abs=1e-12)


def test_bootstrap_is_deterministic_for_a_fixed_seed():
    obs = _synthetic(2.0, 17)
    first = bootstrap_fit(obs, INITIAL, n=120, seed=6)
    second = bootstrap_fit(obs, INITIAL, n=120, seed=6)
    for name in ("t1", "t2", "V", "VM", "tQ", "f0"):
        assert first.percentile_2_5[name] == second.percentile_2_5[name]
        assert first.percentile_97_5[name] == second.percentile_97_5[name]
        assert first.std[name] == second.std[name]


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 6),
    t1=st.floats(50.0, 400.0),
    t2=st.floats(50.0, 400.0),
    v=st.floats(1.0, 100.0),
    v_sign=st.sampled_from((-1.0, 1.0)),
    vm=st.floats(-200.0, 800.0),
)
def test_hellmann_feynman_jacobian_matches_central_differences(p, t1, t2, v, v_sign, vm):
    theta = np.array([t1, t2, v_sign * v, vm])
    lam, jac, _ = _waveguide_spectra(_waveguide_patterns(p), theta[None])

    def levels(th):
        return model_peak_frequencies(ModelParams(p=p, t1=th[0], t2=th[1], V=th[2], VM=th[3],
                                                  tQ=0.0, VQ=0.0))

    h = 1e-3
    numeric = np.empty_like(jac[0])
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        numeric[:, j] = (levels(theta + step) - levels(theta - step)) / (2 * h)
    assert np.allclose(lam[0], levels(theta), rtol=0, atol=1e-9)
    assert np.max(np.abs(jac[0] - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(numeric)))


def _dense_arrow_gaps(evals, psi_m, lower, upper, tq, vqs, margin=0.0):
    """The in-gap splittings and their tQ slopes from a dense eigh of every
    (rows, k) arrow matrix: the oracle of the secular kernel
    fitting._arrow_gaps. A level counts as inside when it lies more than
    margin inside both edges. A level within rounding of an edge (a mode
    dark at M that is itself the edge, say) lands on either side of it, so
    margins from 0 to a few eps |H| span what a dense solve can report. The
    levels come from eigvalsh, as the fit computed them before the secular
    kernel; the slopes are Hellmann-Feynman expectations of dH/dtQ, which
    couples Q to every mode with -psi_m, in the eigenvectors of eigh, so a
    level that does not couple to Q has slope 0."""
    rows, k = vqs.shape
    n = evals.shape[1] + 1
    i = np.arange(n - 1)
    h = np.zeros((rows, k, n, n))
    h[:, :, i, i] = evals[:, None, :]
    h[:, :, -1, -1] = vqs
    h[:, :, i, -1] = h[:, :, -1, i] = -tq[:, None, None] * psi_m[:, None, :]
    lam, z = np.linalg.eigvalsh(h), np.linalg.eigh(h)[1]
    slope = -2.0 * z[..., -1, :] * np.einsum("rkmi,rm->rki", z[..., :-1, :], psi_m)
    inside = (lam > lower[:, None, None] + margin) & (lam < upper[:, None, None] - margin)
    spacing = np.where(inside[..., 1:] & inside[..., :-1], np.diff(lam, axis=-1), np.inf)
    j = np.argmin(spacing, axis=-1)[..., None]
    gap = np.take_along_axis(spacing, j, axis=-1)[..., 0]
    pair = np.take_along_axis(slope, np.concatenate([j, j + 1], axis=-1), axis=-1)
    return np.where(np.isinf(gap), np.nan, gap), pair[..., 1] - pair[..., 0]


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(1, 6),
    t1=st.floats(20.0, 300.0),
    t2=st.floats(20.0, 300.0),
    v=st.one_of(st.just(0.0), st.floats(-100.0, 100.0)),
    vm=st.floats(-600.0, 600.0),
    tq=st.one_of(st.sampled_from([0.5, 400.0]), st.floats(0.5, 400.0)),
    spots=st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=6),
    edge=st.sampled_from([None, 0.0, 0.5, 1.0]),
)
def test_secular_gaps_match_dense_oracle(p, t1, t2, v, vm, tq, spots, edge):
    # VQ in and around the gap, at fractions of its width, edges included;
    # V = 0 makes the mirror-odd modes dark at M and the chiral zero mode an
    # edge or an in-gap level
    from ricemele.fitting import _arrow_gaps

    block = _block(ModelParams(p=p, t1=t1, t2=t2, V=v, VM=vm, tQ=tq, VQ=0.0))
    evals, _, lower, upper = (x[0] for x in block)
    fractions = spots + ([] if edge is None else [edge])
    vqs = np.array([[lower + f * (upper - lower) for f in fractions]])
    args = (*block, np.array([tq]), vqs)
    gap, slope, _ = _arrow_gaps(*args)
    scale = np.abs(evals).max() + tq + np.abs(vqs).max()
    dense = [_dense_arrow_gaps(*args, margin=m * np.finfo(float).eps * scale)
             for m in (0, 2, 3, 4, 5, 6, 8, 16)]

    def agrees(i, want, want_slope):
        if np.isnan(want) or np.isnan(gap[0, i]):
            return bool(np.isnan(want) and np.isnan(gap[0, i]))
        return (abs(gap[0, i] - want) <= 1e-9
                and abs(slope[0, i] - want_slope) <= 1e-8 * max(abs(want_slope), 1e-3))

    for i in range(vqs.shape[1]):
        # where every margin gives one answer, the dense answer is
        # unambiguous and the kernel must match it; where a level lies within
        # 16 eps |H| of an edge, the kernel must match one of them
        answers = [(g[0, i], s[0, i]) for g, s in dense]
        if all(np.array_equal(a[0], answers[0][0], equal_nan=True) for a in answers):
            answers = answers[:1]
        assert any(agrees(i, *a) for a in answers), (vqs[0, i], gap[0, i], slope[0, i], answers)


def test_secular_kernel_counts_a_dark_mode_inside_the_gap():
    # at V = 0 a long chain's chiral zero mode sits inside the gap with no
    # weight at M: it is a level for every VQ and tQ. Both gap edges are
    # end states with |psi_M| ~ 1e-14, whose levels stay within rounding of
    # the edges, so the dense oracle is read with a margin of 16 eps |H|.
    from ricemele.fitting import _arrow_gaps

    block = _block(ModelParams(p=6, t1=60.0, t2=250.0, V=0.0, VM=0.0, tQ=80.0, VQ=0.0))
    evals, psi_m, lower, upper = (x[0] for x in block)
    dark = (np.abs(psi_m) < 1e-12) & (evals > lower) & (evals < upper)
    assert dark.sum() == 1
    vqs = np.array([[lower + 0.1 * (upper - lower), 0.0, 50.0]])
    args = (*block, np.array([80.0]), vqs)
    gap, slope, _ = _arrow_gaps(*args)
    margin = 16 * np.finfo(float).eps * (np.abs(evals).max() + 80.0 + np.abs(vqs).max())
    want, want_slope = _dense_arrow_gaps(*args, margin=margin)
    assert np.all(np.isfinite(gap))
    np.testing.assert_allclose(gap, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(slope, want_slope, rtol=1e-8, atol=1e-12)


def test_secular_roots_seeded_from_an_earlier_call_give_the_same_gaps(fitted_params):
    from ricemele.fitting import _arrow_gaps

    block = _block(fitted_params)
    vqs = np.array([[-20.0, 0.0, 17.6, 35.0, 55.0]])
    _, _, roots = _arrow_gaps(*block, np.array([130.0]), vqs)
    cold = _arrow_gaps(*block, np.array([131.0]), vqs)
    warm = _arrow_gaps(*block, np.array([131.0]), vqs, roots)
    np.testing.assert_allclose(warm[0], cold[0], rtol=0, atol=1e-11)
    np.testing.assert_allclose(warm[1], cold[1], rtol=1e-10)


@pytest.mark.parametrize("tq", [40.0, 130.0, 200.0])
def test_gap_slope_matches_central_differences(fitted_params, tq):
    from ricemele.fitting import _arrow_gaps

    block = _block(fitted_params)
    vqs = np.array([[-20.0, 0.0, 17.6, 35.0, 55.0]])

    def at(t):
        return _arrow_gaps(*block, np.array([t]), vqs)[:2]

    gap, slope = at(tq)
    h = 1e-4
    numeric = (at(tq + h)[0] - at(tq - h)[0]) / (2 * h)
    assert np.all(np.isfinite(gap))
    assert slope == pytest.approx(numeric, rel=1e-6, abs=1e-9)


# objective value outside the model's domain in the oracle's searches
_SENTINEL = 1e12


def _fit_once(initial, fixed, rng, n_restarts, pair_idx, pair_freq, gap_obs):
    """One full two-stage fit of a single sample by scipy's Nelder-Mead and
    bounded scalar search: the oracle for the batched solvers.

    Stage 1 minimizes the profiled sum of squares (_SENTINEL where t1 or t2
    is negative) from initial and from n_restarts - 1 random starts around
    it, with xatol 1e-4 MHz, a relative fatol of 1e-7 of the starting value
    and at most 2000 iterations, and keeps the lowest. Stage 2 searches tQ
    on [0, _tq_bound] with xatol 1e-3 MHz, on the gaps of dense arrow
    eigensolves (_dense_arrow_gaps) inside the gap edges of the heuristic
    that model.gap_edges replaced, and raises NumericalError when no tQ
    there gives two in-gap levels at every gap VQ.
    """
    from scipy.optimize import minimize, minimize_scalar

    free = [n for n in STAGE1_FREE if n not in fixed]
    fixed_f0 = initial.f0 if "f0" in fixed else None

    def stage1(theta):
        values = {n: float(x) for n, x in zip(free, theta)}
        if min(values.get("t1", initial.t1), values.get("t2", initial.t2)) < 0:
            return None
        params = initial.with_(**values)
        model = model_peak_frequencies(params.with_(f0=0.0))[pair_idx]
        f0 = float(np.mean(pair_freq - model)) if fixed_f0 is None else fixed_f0
        return params.with_(f0=f0), pair_freq - model - f0

    def sse1(theta):
        out = stage1(theta)
        return _SENTINEL if out is None else float(out[1] @ out[1])

    x0_base = np.array([getattr(initial, n) for n in free])
    scale = np.maximum(np.abs(x0_base), 10.0)
    best, best_sse = x0_base, None
    for trial in range(max(n_restarts, 1) if free else 0):
        x0 = x0_base if trial == 0 else x0_base + 0.1 * scale * rng.standard_normal(len(free))
        fatol = max(1e-10, 1e-7 * (sse1(x0) + 1.0))
        found = minimize(sse1, x0, method="Nelder-Mead",
                         options={"xatol": 1e-4, "fatol": fatol, "maxiter": 2000})
        if best_sse is None or found.fun < best_sse:
            best, best_sse = found.x, found.fun
    params, _ = stage1(best)

    if "tQ" not in fixed and gap_obs:
        bounds = heuristic_block_gap(params)
        if bounds is None:
            raise NumericalError("the heuristic finds no band gap")
        block = _block(params, bounds)
        vqs, sizes = np.array(gap_obs, dtype=float).T

        def sse2(tq):
            diff = sizes - _dense_arrow_gaps(*block, np.array([tq]), vqs[None])[0][0]
            return _SENTINEL if np.isnan(diff).any() else float(diff @ diff)

        hi = _tq_bound(initial.tQ, *bounds)
        found = minimize_scalar(sse2, bounds=(0.0, hi), method="bounded",
                                options={"xatol": 1e-3})
        if found.fun >= _SENTINEL:
            raise NumericalError(
                f"no tQ in [0, {hi:.4g}] MHz gives two in-gap levels at every gap VQ")
        params = params.with_(tQ=float(found.x))
    return params


@pytest.mark.parametrize("jitter, seed", [(0.0, 0), (2.0, 3), (2.0, 7)])
def test_point_fit_matches_nelder_mead_oracle(jitter, seed):
    obs = _synthetic(jitter, seed)
    result = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)
    oracle = _fit_once(
        INITIAL, frozenset(), np.random.default_rng(1), 5,
        np.arange(19), np.sort(obs.peaks.frequencies()), obs.gaps,
    )
    for name in ("t1", "t2", "V", "VM", "tQ", "f0"):
        assert getattr(result.best, name) == pytest.approx(getattr(oracle, name), abs=1e-3)


def _resamples(obs, seed, n):
    rng = np.random.default_rng(seed)
    peak_picks = np.array([rng.integers(0, 19, 19) for _ in range(n)])
    gap_picks = np.array([rng.integers(0, len(obs.gaps), len(obs.gaps)) for _ in range(n)])
    return peak_picks, gap_picks


def test_batched_refits_match_per_sample_oracle():
    from ricemele.fitting import _fit_block

    obs = _synthetic(1.0, 3)
    point = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1).best
    freq = np.sort(obs.peaks.frequencies())
    peak_picks, gap_picks = _resamples(obs, 3, 32)
    rows, _, _ = _fit_block(point, frozenset(), _starts(point, 32), peak_picks, gap_picks, freq,
                            obs.gaps)
    for row, peaks, picks in zip(rows, peak_picks, gap_picks):
        oracle = _fit_once(point, frozenset(), np.random.default_rng(0), 1,
                           peaks, freq[peaks], [obs.gaps[i] for i in picks])
        assert row == pytest.approx([getattr(oracle, n) for n in FIT_NAMES], abs=1e-3)


def _resample_sse(params, obs, peaks, picks):
    res = np.sort(obs.peaks.frequencies())[peaks] - model_peak_frequencies(params)[peaks]
    sse = float(res @ res)
    for i in picks:
        vq, size = obs.gaps[i]
        sse += (size - model_anticrossing_gap(params, vq)) ** 2
    return sse


def test_stage2_stays_in_the_basin_of_the_point_estimate():
    # the bounded scalar search over [0, 4 tQ] ends at a distant local
    # minimum for this resample; Gauss-Newton from the point estimate does not
    from ricemele.fitting import _fit_block

    obs = _synthetic(1.0, 5)
    # the point fit of these data, pinned: the scalar search's path over
    # [0, 4 tQ] changes with the last digits of its start
    point = TRUTH.with_(t1=230.31746600601687, t2=279.48947159027534, V=40.807833115638516,
                        VM=589.0229052601923, f0=4599.873182807245, tQ=126.04087173545408)
    assert fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1).best.tQ == pytest.approx(
        point.tQ, abs=1e-3)
    freq = np.sort(obs.peaks.frequencies())
    peaks = np.array([12, 17, 7, 6, 15, 0, 3, 3, 7, 2, 15, 16, 7, 0, 13, 2, 11, 3, 17])
    picks = np.array([4, 1, 1, 2, 2])
    [row], _, _ = _fit_block(point, frozenset(), _starts(point, 1), peaks[None], picks[None],
                             freq, obs.gaps)
    new = point.with_(**dict(zip(FIT_NAMES, row)))
    old = _fit_once(point, frozenset(), np.random.default_rng(0), 1,
                    peaks, freq[peaks], [obs.gaps[i] for i in picks])
    assert new.tQ < 2 * point.tQ < old.tQ
    assert _resample_sse(new, obs, peaks, picks) <= _resample_sse(old, obs, peaks, picks)


CHIRAL = TRUTH.with_(V=0.0)


def test_gap_vqs_outside_the_band_gap_are_a_numerical_error():
    # at V = 0 the chiral zero mode, dark at M, lies inside the bulk gap
    # (-54.9, 144.5) MHz as a level of its own. With the qubit below it the
    # in-gap levels are one qubit-like level and that zero mode, whose spacing
    # stays below |VQ| for every tQ, so no tQ fits gaps of 50 and 40 MHz and
    # stage 2 does not converge. The oracle's heuristic put the lower gap
    # edge on the zero mode instead, which leaves these VQs outside its gap.
    freqs = model_peak_frequencies(CHIRAL)
    peaks = PeakSet([Peak(0.0, float(f), 1.0) for f in freqs])
    below = [(-40.0, 50.0), (-20.0, 40.0)]
    initial = INITIAL.with_(V=0.0)
    with pytest.raises(NumericalError, match="stage 2 did not converge"):
        fit_hamiltonian(peaks, below, initial, fixed=("V",), seed=1)
    with pytest.raises(NumericalError, match="two in-gap levels"):
        _fit_once(initial, frozenset({"V"}), np.random.default_rng(0), 1,
                  np.arange(19), np.sort(freqs), below)


def test_resample_without_a_valid_tq_is_a_failed_refit():
    # this resample's refit drifts to V ~ 0, where stage 1 stalls; the
    # oracle's heuristic gap rule moves the lower gap edge to zero there and
    # leaves VQ = 0 and -20 MHz outside the gap
    from ricemele.fitting import _fit_block

    obs = _synthetic(2.0, 0)
    point = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1).best
    freq = np.sort(obs.peaks.frequencies())
    peaks = np.array([17, 5, 15, 12, 0, 7, 16, 10, 0, 14, 13, 16, 3, 1, 16, 0, 10, 1, 5])
    picks = np.array([2, 3, 1, 4, 0])
    table, _, _ = _fit_block(point, frozenset(), _starts(point, 1), peaks[None], picks[None],
                             freq, obs.gaps)
    assert np.isnan(table).all()
    with pytest.raises(NumericalError, match="two in-gap levels"):
        _fit_once(point, frozenset(), np.random.default_rng(0), 1,
                  peaks, freq[peaks], [obs.gaps[i] for i in picks])


def test_an_unconverged_row_is_a_counted_failed_resample(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(1.0, 3)
    before = bootstrap_fit(obs, INITIAL, n=100, seed=2)
    point = before.best
    freq = np.sort(obs.peaks.frequencies())
    peak_picks, gap_picks = _resamples(obs, 3, 4)
    rows, _, _ = fitting._fit_block(point, frozenset(), _starts(point, 4), peak_picks, gap_picks,
                                    freq, obs.gaps)
    assert before.n_failed == 0 and not np.isnan(rows).any()

    real, calls = fitting._stage1_rows, []

    def first_row_stalls(*args):
        theta, f0, sse, converged, spectra = real(*args)
        calls.append(len(converged))
        # call 1 is the refit above; in the bootstrap, call 2 is the point fit
        # and call 3 its first block of resamples
        if len(calls) in (1, 3):
            converged[0] = False
        return theta, f0, sse, converged, spectra

    monkeypatch.setattr(fitting, "_stage1_rows", first_row_stalls)
    stalled, _, _ = fitting._fit_block(point, frozenset(), _starts(point, 4), peak_picks,
                                       gap_picks, freq, obs.gaps)
    assert np.isnan(stalled[0]).all()
    np.testing.assert_array_equal(stalled[1:], rows[1:])
    after = bootstrap_fit(obs, INITIAL, n=100, seed=2)
    assert calls[1:3] == [5, min(100, fitting.BLOCK_ROWS)]
    assert after.n_failed == 1
    assert after.best == before.best


def test_point_fit_uses_only_converged_starts(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(2.0, 3)
    want = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1).best
    real, stalled = fitting._stage1_rows, {"rows": [0]}

    def stalls(patterns, free, starts, *args):
        theta, f0, sse, converged, spectra = real(patterns, free, starts, *args)
        # where the solver leaves a row that stalls at its start
        rows = stalled["rows"]
        theta[rows], sse[rows], converged[rows] = starts[rows], np.nan, False
        return theta, f0, sse, converged, spectra

    monkeypatch.setattr(fitting, "_stage1_rows", stalls)
    got = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1).best
    for name in FIT_NAMES:
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-6)
    stalled["rows"] = slice(None)
    with pytest.raises(NumericalError, match="none of its 5 starts"):
        fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)


def test_stage2_cannot_start_from_tq_zero():
    # at tQ = 0 no gap size depends on tQ, so Gauss-Newton has no step to take
    obs = _synthetic(0.0, 0)
    with pytest.raises(NumericalError, match="stage 2 did not converge from tQ = 0 MHz"):
        fit_hamiltonian(obs.peaks, obs.gaps, INITIAL.with_(tQ=0.0), seed=1)


# the fit's eigensolves of the dense waveguide block (eigvalsh in
# model_peak_frequencies, eigh in _waveguide_spectra) replace LAPACK dstev;
# they are checked against scipy's.


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 8),
    t1=st.floats(20.0, 400.0),
    t2=st.floats(20.0, 400.0),
    v=st.floats(-100.0, 100.0),
    vm=st.floats(-200.0, 800.0),
)
def test_waveguide_eigensolves_match_dstev(p, t1, t2, v, vm):
    from scipy.linalg import lapack

    from ricemele.model import _waveguide_tridiagonal

    d, e = _waveguide_tridiagonal(p, v, t1, t2, vm)
    w_ref, z_ref, info = lapack.dstev(d, e, compute_v=1)
    assert info == 0
    scale = np.max(np.abs(w_ref))
    w = model_peak_frequencies(ModelParams(p=p, t1=t1, t2=t2, V=v, VM=vm, tQ=0.0, VQ=0.0))
    lam, _, z = _waveguide_spectra(_waveguide_patterns(p), np.array([[t1, t2, v, vm]]))
    lam, z = lam[0], z[0]
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
    assert np.max(np.abs(lam - w_ref)) <= 1e-12 * scale
    # each eigenvector up to its sign; rounding moves it by about eps |H| over
    # the distance to the nearest other eigenvalue
    spacing = np.diff(w_ref)
    nearest = np.minimum(np.r_[np.inf, spacing], np.r_[spacing, np.inf])
    aligned = z * np.where(np.sum(z * z_ref, axis=0) < 0, -1.0, 1.0)
    assert np.all(np.max(np.abs(aligned - z_ref), axis=0) <= 1e-12 * scale / nearest + 1e-12)


def _fit_workload_inputs(seed):
    """Observations like those of perfbench's fit workload for seed: the
    fitted device's 19 peaks and five gaps with 2 MHz noise, drawn in the
    workload's order and rounded to its six decimals, from ricemele's own
    model."""
    r = np.random.default_rng(seed)
    freqs = model_peak_frequencies(TRUTH) + r.normal(0.0, 2.0, 19)
    peaks = PeakSet([Peak(0.0, round(float(f), 6), 1.0) for f in freqs])
    gaps = [(vq, round(model_anticrossing_gap(TRUTH, vq) + r.normal(0.0, 2.0), 6))
            for vq in GAP_VQS]
    return FitObservations(peaks=peaks, gaps=gaps)


@pytest.mark.parametrize("seed", range(10))
def test_gap_model_from_stage1_eigenpairs_is_bit_identical(seed):
    # the bootstrap's stage 2 reads each row's waveguide block from stage 1:
    # the one-row solve of model_anticrossing_gap gives the same bits
    from ricemele.fitting import _stage1_rows

    obs = _fit_workload_inputs(seed)
    point = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=seed).best
    freq = np.sort(obs.peaks.frequencies())
    peak_picks, _ = _resamples(obs, seed, 40)
    theta, _, _, ok, (evals, evecs) = _stage1_rows(_waveguide_patterns(point.p), [0, 1, 2, 3],
                                                   _starts(point, 40), peak_picks,
                                                   freq[peak_picks], None)
    m = site_roles(point.p).M - 1
    rows = np.flatnonzero(ok)
    assert rows.size >= 30
    lower, upper = gap_edges(evals[rows], theta[rows, 2], theta[rows, 0], theta[rows, 1])
    for j, r in enumerate(rows):
        want = _block(point.with_(**{n: float(x) for n, x in zip(STAGE1_FREE, theta[r])}))
        assert evals[r].tobytes() == want[0][0].tobytes()
        assert evecs[r, m].tobytes() == want[1][0].tobytes()
        assert (lower[j], upper[j]) == (want[2][0], want[3][0])


@pytest.mark.parametrize("seed", range(10))
def test_refit_of_the_unresampled_data_is_the_point_fit(seed):
    # the point fit and the bootstrap are rows of one two-stage solve, so a
    # refit of the data themselves from the point estimate moves no bit
    from ricemele.fitting import _fit_block

    obs = _fit_workload_inputs(seed)
    point = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=seed).best
    freq = np.sort(obs.peaks.frequencies())
    [row], _, _ = _fit_block(point, frozenset(), _starts(point, 1), np.arange(19)[None],
                             np.arange(len(obs.gaps))[None], freq, obs.gaps)
    assert row.tobytes() == np.array([getattr(point, n) for n in FIT_NAMES]).tobytes()


def _bulk_rule_by_hand(energies, v, t1, t2):
    """model.gap_edges for one spectrum, one level at a time."""
    e_b = math.hypot(v, t1 - t2)
    tol = 4.0 * np.finfo(float).eps * max(abs(x) for x in energies)
    return (max((x for x in energies if x <= tol - e_b), default=math.nan),
            min((x for x in energies if x >= e_b - tol), default=math.nan))


@pytest.mark.parametrize("seed", [6, 24])
def test_bootstrap_gap_edges_are_the_bulk_rule_on_every_row(monkeypatch, seed):
    # one bootstrap block of a perfbench fit (250 resamples from its guess):
    # the edges of every row are the bulk rule's, and every gap VQ of the data
    # lies inside them. The heuristic put a mode dark at M at an edge on 710
    # of 9780 such rows over seeds 0-39, and left a gap VQ outside on 27
    # (seed 6, resample 164: (-166.55, 32.85) MHz); the bulk rule on none.
    import ricemele.fitting as fitting

    real_stage1, real_edges, seen = fitting._stage1_rows, fitting.gap_edges, {}

    def stage1(*args):
        out = real_stage1(*args)
        seen["theta"], seen["ok"] = out[0].copy(), out[3].copy()
        return out

    def edges(energies, *args):
        seen["energies"], seen["edges"] = energies, real_edges(energies, *args)
        return seen["edges"]

    monkeypatch.setattr(fitting, "_stage1_rows", stage1)
    monkeypatch.setattr(fitting, "gap_edges", edges)
    obs = _fit_workload_inputs(seed)
    bootstrap_fit(obs, INITIAL, n=250, seed=seed)
    theta = seen["theta"][seen["ok"]]
    lower, upper = seen["edges"]
    assert len(lower) == len(theta) >= 240
    for j, (t1, t2, v, _) in enumerate(theta):
        assert (lower[j], upper[j]) == _bulk_rule_by_hand(seen["energies"][j], v, t1, t2)
    assert np.all(lower < min(GAP_VQS)) and np.all(upper > max(GAP_VQS))


def test_bare_block_gap_at_v_zero_is_not_on_the_chiral_zero_mode():
    # at V = 0 the chain has a zero mode dark at M; the heuristic took it as
    # the lower gap edge. The bulk rule puts the edges at +-E_b = +-|t1 - t2|
    # or beyond, with the zero mode inside.
    for t1, t2 in ((230.0, 280.0), (280.0, 230.0), (60.0, 250.0), (150.0, 120.0)):
        for p in (1, 2, 4, 7):
            params = CHIRAL.with_(p=p, t1=t1, t2=t2)
            evals, psi_m, lower, upper = (x[0] for x in _block(params))
            k = np.argmin(np.abs(evals))
            assert abs(evals[k]) < 1e-10 and abs(psi_m[k]) < 1e-10
            assert lower <= -abs(t1 - t2) and upper >= abs(t1 - t2)
            assert lower < evals[k] < upper
    assert heuristic_block_gap(CHIRAL)[0] == pytest.approx(0.0, abs=1e-10)


def test_bootstrap_does_not_depend_on_the_block_size(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(2.0, 0)
    results = []
    for rows in (7, 32, 256):
        monkeypatch.setattr(fitting, "BLOCK_ROWS", rows)
        results.append(bootstrap_fit(obs, INITIAL, n=300, seed=3))
    assert results[0].n_failed > 0
    assert results[0] == results[1] == results[2]
