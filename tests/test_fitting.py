import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricemele import (
    FitObservations,
    ModelParams,
    ParameterError,
    Peak,
    PeakSet,
    bootstrap_fit,
    extract_peaks,
    fit_hamiltonian,
    median_background_subtract,
    model_anticrossing_gap,
    model_peak_frequencies,
    resonance_grid,
    s_matrix,
)
from ricemele.model import RAD_PER_NS_PER_MHZ, build_hamiltonian
from ricemele.scattering import SpectrumMap


def _map(values):
    values = np.asarray(values, dtype=float)
    return SpectrumMap(
        E_grid=np.arange(values.shape[0], dtype=float),
        VQ_grid=np.arange(values.shape[1], dtype=float),
        values=values,
        kind="S_RL",
    )


def test_background_subtract_constant_map():
    out = median_background_subtract(_map(np.full((6, 9), 3.7)), 5)
    assert np.max(np.abs(out.values)) == 0.0


def test_background_subtract_preserves_moving_peak():
    # peak walks 2 rows per column, so within any fixed frequency row it
    # occupies a few columns and the running median sees mostly background
    n_e, n_vq = 100, 41
    background = 2.0 + 0.01 * np.arange(n_e)[:, None] * np.ones((1, n_vq))
    peak = np.zeros((n_e, n_vq))
    amp = 1.5
    for j in range(n_vq):
        centre = 10 + 2.0 * j
        peak[:, j] = amp * np.exp(-0.5 * ((np.arange(n_e) - centre) / 1.5) ** 2)
    out = median_background_subtract(_map(background + peak), 15)
    assert np.max(out.values) == pytest.approx(np.max(peak), rel=0.05)
    clear = np.max(peak, axis=1) < 1e-6 * amp
    assert np.max(np.abs(out.values[clear, :])) < 0.01 * np.max(background)


def test_background_subtract_idempotent_on_zero_median():
    values = np.zeros((8, 31))
    values[4, 15] = 2.0  # single narrow spike: running median stays zero
    once = median_background_subtract(_map(values), 9)
    twice = median_background_subtract(once, 9)
    assert np.max(np.abs(once.values - values)) < 1e-12
    assert np.max(np.abs(twice.values - once.values)) < 1e-12


def test_background_subtract_window_validation():
    m = _map(np.zeros((4, 7)))
    with pytest.raises(ParameterError):
        median_background_subtract(m, 4)
    with pytest.raises(ParameterError):
        median_background_subtract(m, 1)
    with pytest.raises(ParameterError):
        median_background_subtract(m, 9)


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
    far = fitted_params.with_(VQ=10 * max(fitted_params.t1, fitted_params.t2) + fitted_params.VM)
    grid = resonance_grid(far, 2001)
    H = build_hamiltonian(far, include_ports=True)
    values = np.array([abs(s_matrix(far, e, H=H).S_RL) for e in grid])
    peaks = extract_peaks(grid, values, 1e-3)
    assert len(peaks) == 19


def test_extract_peaks_validation():
    with pytest.raises(ParameterError):
        extract_peaks([0.0, 1.0], [1.0, 2.0], 0.1)
    with pytest.raises(ParameterError):
        extract_peaks([0.0, 1.0, 2.0], [1.0, 2.0], 0.1)
    assert len(extract_peaks([0, 1, 2], [0.0, 0.0, 0.0], 0.1)) == 0


TRUTH = ModelParams(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=0.0, VM=590.0, f0=4600.0)
GAP_VQS = (-20.0, 0.0, 17.6, 35.0, 55.0)
INITIAL = TRUTH.with_(t1=200.0, t2=300.0, V=30.0, VM=550.0, tQ=100.0, f0=4550.0)


def _synthetic(jitter, seed):
    r = np.random.default_rng(seed)
    freqs = model_peak_frequencies(TRUTH) + r.normal(0.0, jitter, 4 * TRUTH.p + 3)
    peaks = PeakSet([Peak(0.0, float(f), 1.0) for f in freqs], source="synthetic")
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
    a = fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, n_restarts=1, seed=1)
    b = fit_hamiltonian(shuffled, obs.gaps, INITIAL, n_restarts=1, seed=1)
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
        assert result.percentile_2_5[name] <= result.median[name] <= result.percentile_97_5[name]
    assert result.n_bootstrap == 150


def test_bootstrap_requires_minimum_samples():
    obs = _synthetic(1.0, 0)
    with pytest.raises(ParameterError):
        bootstrap_fit(obs, INITIAL, n=50)


def test_bootstrap_aborts_when_refits_keep_failing(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(1.0, 13)
    point = fitting.fit_hamiltonian(obs.peaks, obs.gaps, INITIAL, seed=1)
    real_fit_once = fitting._fit_once
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise fitting.NumericalError("synthetic failure")
        return real_fit_once(*args, **kwargs)

    monkeypatch.setattr(fitting, "_fit_once", flaky)
    with pytest.raises(fitting.NumericalError):
        fitting.bootstrap_fit(obs, point.best, n=100, seed=1)


def test_bootstrap_counts_gap_rule_failure_as_one_failed_resample(monkeypatch):
    import ricemele.fitting as fitting

    obs = _synthetic(1.0, 13)
    real_locate_gap = fitting.locate_gap
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        # call 1 is the point fit; calls 2..12 are the first 11 of 100 resamples
        if 2 <= calls["n"] <= 12:
            raise fitting.InsufficientModesError("synthetic gap-rule failure")
        return real_locate_gap(*args, **kwargs)

    monkeypatch.setattr(fitting, "locate_gap", failing)
    with pytest.raises(fitting.NumericalError, match="11/100 bootstrap refits failed"):
        fitting.bootstrap_fit(obs, INITIAL, n=100, seed=1)
    assert calls["n"] == 101


def test_gap_model_edges_of_fitted_device(fitted_params):
    # the bare waveguide block, not the far-detuned chain: a parked qubit
    # moves these edges to (-73.496, 149.261) MHz
    from ricemele.fitting import _GapModel

    model = _GapModel(fitted_params)
    assert model.lower == pytest.approx(-73.2806931319502, abs=1e-12)
    assert model.upper == pytest.approx(149.39367238654432, abs=1e-12)


def test_bootstrap_is_deterministic_across_thread_counts():
    obs = _synthetic(2.0, 17)
    serial = bootstrap_fit(obs, INITIAL, n=120, seed=6, threads=1)
    threaded = bootstrap_fit(obs, INITIAL, n=120, seed=6, threads=4)
    for name in ("t1", "t2", "V", "VM", "tQ", "f0"):
        assert serial.percentile_2_5[name] == threaded.percentile_2_5[name]
        assert serial.percentile_97_5[name] == threaded.percentile_97_5[name]
        assert serial.std[name] == threaded.std[name]
