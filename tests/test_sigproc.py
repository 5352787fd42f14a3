import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricemele import (
    BlochParams,
    ParameterError,
    SignalAmplitudes,
    bloch_rabi_trace,
    bootstrap_amplitude,
    chi_estimate,
)
from ricemele.model import RAD_PER_NS_PER_MHZ
from ricemele.sigproc import _lowpass_taps

from conftest import demodulate_amplitude

F_RABI = 25.0
T_GRID = np.arange(0.0, 4000.0, 1.0)


def _tone(freq, amplitude=2.0, phase=0.0):
    return amplitude * np.sin(RAD_PER_NS_PER_MHZ * freq * T_GRID + phase)


def test_mixer_identity_returns_half_amplitude():
    out = demodulate_amplitude(T_GRID, _tone(F_RABI, amplitude=2.0), F_RABI)
    assert out == pytest.approx(1.0, rel=0.01)


def test_out_of_band_tone_rejected():
    out = demodulate_amplitude(T_GRID, _tone(3 * F_RABI, amplitude=2.0), F_RABI)
    assert out < 0.01 * 2.0


def test_demodulation_is_linear_for_aligned_signals():
    x = _tone(F_RABI, amplitude=1.0)
    y = 0.5 * x
    a, b = 1.3, 0.6
    combined = demodulate_amplitude(T_GRID, a * x + b * y, F_RABI)
    parts = a * demodulate_amplitude(T_GRID, x, F_RABI) + b * demodulate_amplitude(T_GRID, y, F_RABI)
    assert combined == pytest.approx(parts, abs=1e-9)


def test_complex_trace_phase_does_not_matter():
    z = 2.0 * np.exp(1j * (RAD_PER_NS_PER_MHZ * F_RABI * T_GRID + 0.7))
    out = demodulate_amplitude(T_GRID, z, F_RABI)
    assert out == pytest.approx(1.0, rel=0.01)


def test_demodulation_validation():
    with pytest.raises(ParameterError):
        demodulate_amplitude(T_GRID[:50], _tone(F_RABI)[:50], F_RABI)  # < 2 periods
    with pytest.raises(ParameterError):
        demodulate_amplitude(T_GRID, _tone(F_RABI), -1.0)
    irregular = np.concatenate([T_GRID[:100], T_GRID[100:] + 0.3])
    with pytest.raises(ParameterError):
        demodulate_amplitude(irregular, _tone(F_RABI), F_RABI)
    with pytest.raises(ParameterError):
        demodulate_amplitude(T_GRID, _tone(F_RABI)[:-1], F_RABI)
    for cutoff in (0.0, -3.0, 500.0):   # fs = 1000 MHz, so the cutoff must lie in (0, 500)
        with pytest.raises(ParameterError):
            demodulate_amplitude(T_GRID, _tone(F_RABI), F_RABI, lpf_cutoff=cutoff)


def _filter_and_trapezoid(t, x, f_rabi, lpf_cutoff=6.0):
    """The demodulator as first written: mix, pad by reflection, filter with
    scipy's firwin taps through fftconvolve, integrate with np.trapezoid."""
    from scipy.signal import fftconvolve, firwin

    fs = 1e3 / (t[1] - t[0])
    numtaps = len(_lowpass_taps(fs, lpf_cutoff))
    taps = firwin(numtaps, lpf_cutoff, fs=fs)
    mixed = np.asarray(x, dtype=complex) * np.sin(RAD_PER_NS_PER_MHZ * f_rabi * t)
    dc = fftconvolve(np.pad(mixed, numtaps // 2, mode="reflect"), taps, mode="valid")
    return float(abs(np.trapezoid(dc, t)) / (t[-1] - t[0]))


@pytest.mark.parametrize("fs, cutoff", [(1000.0, 6.0), (2000.0, 6.0), (1000.0, 75.0),
                                        (250.0, 3.3), (977.3, 41.2)])
def test_lowpass_taps_match_firwin(fs, cutoff):
    from scipy.signal import firwin

    taps = _lowpass_taps(fs, cutoff)
    assert len(taps) % 2 == 1
    assert np.max(np.abs(taps - firwin(len(taps), cutoff, fs=fs))) <= 1e-15


def test_weight_vector_matches_filter_and_trapezoid(rng):
    x = _tone(F_RABI, amplitude=0.03) + 0.01 * (rng.normal(size=T_GRID.size)
                                               + 1j * rng.normal(size=T_GRID.size))
    want = _filter_and_trapezoid(T_GRID, x, F_RABI)
    assert demodulate_amplitude(T_GRID, x, F_RABI) == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    dt=st.sampled_from([1.0, 2.0, 2.5, 4.0]),
    cutoff=st.floats(0.5, 40.0),
    extra=st.integers(1, 1500),
    f_frac=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**16),
)
def test_weight_vector_matches_filter_and_trapezoid_anywhere(dt, cutoff, extra, f_frac, phase, seed):
    fs = 1e3 / dt
    n = len(_lowpass_taps(fs, cutoff)) + extra
    if n & (n - 1) == 0:   # keep the FFT oracle off the power-of-two lengths
        n += 1
    t = dt * np.arange(n)
    # any Rabi frequency from 2.5 periods over the trace up to a quarter of fs
    f_lo = 2.5e3 / (t[-1] - t[0])
    f_rabi = f_lo + f_frac * (0.25 * fs - f_lo)
    r = np.random.default_rng(seed)
    x = np.sin(RAD_PER_NS_PER_MHZ * f_rabi * t + phase) + 0.1 * r.normal(size=n)
    want = _filter_and_trapezoid(t, x, f_rabi, cutoff)
    assert demodulate_amplitude(t, x, f_rabi, cutoff) == pytest.approx(want, rel=1e-12)


def test_bloch_port_ratio_matches_weights():
    # port channels carry sqrt(w_p) * sigma_minus, so the squared
    # demodulated amplitude ratio reproduces the population weights
    w_left, w_right = 0.72, 0.18
    bp = BlochParams(rabi_freq=F_RABI, T1=1500.0, T2=3000.0, w_left=w_left, w_right=w_right)
    t = np.arange(0.0, 3000.0, 1.0)
    trace = bloch_rabi_trace(bp, t, drive_on_until=3000.0)
    a_l = demodulate_amplitude(t, trace.channel("port_L"), F_RABI)
    a_r = demodulate_amplitude(t, trace.channel("port_R"), F_RABI)
    assert (a_l / a_r) ** 2 == pytest.approx(w_left / w_right, rel=0.05)


def test_bootstrap_noiseless_signal_is_tight():
    mean, std = bootstrap_amplitude(T_GRID, _tone(F_RABI), F_RABI, n=150, seed=1)
    assert std < 0.02 * mean


def test_bootstrap_white_noise_has_no_coherent_part(rng):
    noise = rng.normal(0.0, 1.0, T_GRID.size)
    mean, std = bootstrap_amplitude(T_GRID, noise, F_RABI, n=150, seed=2)
    assert mean < 3.0 * std + 1e-12


def test_bootstrap_paper_scale_regime(rng):
    # amplitude chosen so the demodulated signal sits near 108 a.u.; with a
    # matched noise floor the bootstrap spread lands at the sub-unit scale
    t = np.arange(0.0, 4096.0, 1.0)
    signal = 216.0 * np.sin(RAD_PER_NS_PER_MHZ * F_RABI * t) + rng.normal(0.0, 5.0, t.size)
    mean, std = bootstrap_amplitude(t, signal, F_RABI, n=150, seed=3)
    assert mean == pytest.approx(108.0, rel=0.02)
    assert 0.03 < std < 1.0


def _bootstrap_sort_unique(t, x, f_rabi, n, seed):
    """The resampling loop as first written, with np.sort + np.unique."""
    rng = np.random.default_rng(seed)
    amplitudes = np.empty(n)
    for i in range(n):
        uniq = np.unique(np.sort(rng.integers(0, t.size, t.size)))
        centres = 0.5 * (t[uniq][1:] + t[uniq][:-1])
        nearest = uniq[np.searchsorted(centres, t)]
        amplitudes[i] = demodulate_amplitude(t, x[nearest], f_rabi)
    return float(np.mean(amplitudes)), float(np.std(amplitudes))


@pytest.mark.parametrize("seed", [0, 7])
def test_bootstrap_matches_sort_unique_resampling_bit_for_bit(seed):
    noise = np.random.default_rng(seed + 100).normal(0.0, 0.5, T_GRID.size)
    x = _tone(F_RABI, amplitude=1.0) + noise
    got = bootstrap_amplitude(T_GRID, x, F_RABI, n=100, seed=seed)
    assert got == _bootstrap_sort_unique(T_GRID, x, F_RABI, n=100, seed=seed)


@pytest.mark.parametrize("seed, npts", [(0, 4096), (7, 3001)])
def test_bootstrap_stack_matches_one_channel_calls_bit_for_bit(seed, npts):
    t = np.arange(float(npts))
    rng = np.random.default_rng(seed + 200)
    stack = np.array([
        amplitude * np.sin(RAD_PER_NS_PER_MHZ * F_RABI * t)
        + rng.normal(0.0, 0.5, npts) + 1j * rng.normal(0.0, 0.5, npts)
        for amplitude in (1.0, 0.05, 0.04, 0.5)
    ])
    means, stds = bootstrap_amplitude(t, stack, F_RABI, n=100, seed=seed)
    assert means.shape == stds.shape == (4,)
    for row, mean, std in zip(stack, means, stds):
        one = bootstrap_amplitude(t, row, F_RABI, n=100, seed=seed)
        assert (mean, std) == one == _bootstrap_sort_unique(t, row, F_RABI, n=100, seed=seed)


def test_bootstrap_validation():
    with pytest.raises(ParameterError):
        bootstrap_amplitude(T_GRID, _tone(F_RABI), F_RABI, n=50)
    with pytest.raises(ParameterError):
        bootstrap_amplitude(T_GRID, _tone(F_RABI)[:-1], F_RABI, n=100)


def test_chi_estimate_reproduces_measured_quadruple():
    est = chi_estimate(SignalAmplitudes(s_lL=108.2, s_lR=0.3, s_rL=0.7, s_rR=54.5))
    assert est.chi == pytest.approx(167.5, abs=1.0)
    assert est.fidelity == pytest.approx(0.994, abs=0.001)
    assert est.chi_dB == pytest.approx(10.0 * math.log10(est.chi), abs=1e-12)
    assert est.chi_l == pytest.approx(108.2 / 0.3)
    assert est.chi_r == pytest.approx(54.5 / 0.7)


def test_chi_symmetric_amplitudes():
    est = chi_estimate(SignalAmplitudes(s_lL=5.0, s_lR=5.0, s_rL=5.0, s_rR=5.0))
    assert est.chi == pytest.approx(1.0)
    assert est.fidelity == pytest.approx(0.5)
    assert est.chi_dB == pytest.approx(0.0)


def test_chi_noise_floor_sentinel():
    est = chi_estimate(SignalAmplitudes(s_lL=10.0, s_lR=0.0, s_rL=1.0, s_rR=10.0))
    assert math.isinf(est.chi)
    assert est.fidelity == 1.0
    assert est.noise_floor_limited
    assert est.as_dict()["chi"] is None


def test_chi_rejects_negative_amplitudes():
    with pytest.raises(ParameterError):
        SignalAmplitudes(s_lL=-1.0, s_lR=1.0, s_rL=1.0, s_rR=1.0)


@settings(max_examples=80, deadline=None)
@given(
    s=st.tuples(
        st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
    ),
    g=st.floats(1e-3, 1e3),
    h=st.floats(1e-3, 1e3),
)
def test_chi_is_gain_invariant(s, g, h):
    s_ll, s_lr, s_rl, s_rr = s
    base = chi_estimate(SignalAmplitudes(s_lL=s_ll, s_lR=s_lr, s_rL=s_rl, s_rR=s_rr))
    # port-L amplitudes scale with g, port-R amplitudes with h
    scaled = chi_estimate(
        SignalAmplitudes(s_lL=g * s_ll, s_lR=h * s_lr, s_rL=g * s_rl, s_rR=h * s_rr)
    )
    assert scaled.chi == pytest.approx(base.chi, rel=1e-12)


def test_fidelity_increases_with_chi():
    chis = [chi_estimate(SignalAmplitudes(s_lL=x, s_lR=1.0, s_rL=1.0, s_rR=x)).fidelity
            for x in (0.5, 1.0, 3.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(chis, chis[1:]))

