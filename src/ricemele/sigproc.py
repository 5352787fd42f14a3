"""Directionality estimation from port signals at the Rabi frequency.

The estimator mixes each port trace with a sinusoid at the Rabi frequency,
low-pass filters to keep the demodulated zero-frequency component,
integrates, and forms gain-cancelling ratios of the four edge-state/port
amplitude combinations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .model import RAD_PER_NS_PER_MHZ

# widest allowed filter transition band, MHz
TRANSITION_BAND = 2.0
# low-pass cutoff of bootstrap_amplitude's demodulator, MHz
LPF_CUTOFF = 6.0


@dataclass(frozen=True)
class SignalAmplitudes:
    """Demodulated amplitudes s_(edge state, port), arbitrary units.

    First index letter: which edge state was prepared (l/r); second: the
    port the signal was measured on (L/R).
    """

    s_lL: float
    s_lR: float
    s_rL: float
    s_rR: float
    std_lL: float = 0.0
    std_lR: float = 0.0
    std_rL: float = 0.0
    std_rR: float = 0.0

    def __post_init__(self):
        for name in ("s_lL", "s_lR", "s_rL", "s_rR"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ChiEstimate:
    chi_l: float
    chi_r: float
    chi: float
    chi_dB: float
    fidelity: float
    noise_floor_limited: bool = False

    def as_dict(self) -> dict:
        """JSON-safe dict; infinite values are encoded as null."""
        return {k: None if v in (math.inf, -math.inf) else v for k, v in asdict(self).items()}


def _lowpass_taps(fs_mhz: float, cutoff_mhz: float) -> np.ndarray:
    """Hamming-windowed sinc taps with unit DC gain and a transition band of
    at most TRANSITION_BAND.

    The window is written as scipy.signal.get_window writes it, so the taps
    equal scipy.signal.firwin(numtaps, cutoff_mhz, fs=fs_mhz) bit for bit.
    """
    numtaps = int(math.ceil(3.3 * fs_mhz / TRANSITION_BAND))
    numtaps += 1 - numtaps % 2
    c = cutoff_mhz / (0.5 * fs_mhz)
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    h = c * np.sinc(c * m) * window
    return h / np.sum(h)


def _demodulation_weights(t: np.ndarray, f_rabi: float, lpf_cutoff: float):
    """(w, duration) such that the demodulated amplitude of x is |x @ w| / duration.

    The demodulator mixes with s = sin(k f_rabi t), pads by reflection (P),
    filters with the taps (valid convolution C) and integrates by the
    trapezoid rule (weights q). All of it is linear, so
    q . C P (s * x) = (s * P^T C^T q) . x: C^T q is one convolution of q with
    the reversed taps, and P^T folds the weight of each padding sample back
    onto the trace sample it copies.
    """
    if t.size < 4:
        raise ParameterError("trace too short")
    if f_rabi <= 0:
        raise ParameterError(f"f_rabi must be positive, got {f_rabi}")
    duration = t[-1] - t[0]
    if duration < 2.0 * 1e3 / f_rabi:
        raise ParameterError(
            f"trace of {duration:.1f} ns covers fewer than 2 Rabi periods at {f_rabi} MHz"
        )
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-6, atol=1e-12):
        raise ParameterError("trace must be uniformly sampled")

    fs_mhz = 1e3 / dt[0]
    if not 0.0 < lpf_cutoff < 0.5 * fs_mhz:
        raise ParameterError(
            f"lpf_cutoff must lie in (0, {0.5 * fs_mhz:.6g}) MHz, got {lpf_cutoff}"
        )
    taps = _lowpass_taps(fs_mhz, lpf_cutoff)
    if len(taps) >= t.size:
        raise ParameterError(
            f"trace too short for the {TRANSITION_BAND} MHz transition band: "
            f"needs more than {len(taps)} samples, got {t.size}"
        )
    n, half = t.size, len(taps) // 2
    q = np.zeros(n)
    q[:-1] += 0.5 * dt
    q[1:] += 0.5 * dt
    r = np.convolve(q, taps[::-1])
    w = r[half:half + n]
    # reflect padding: padded sample k < half copies x[half - k], and padded
    # sample half + n + j copies x[n - 2 - j]
    w[1:half + 1] += r[:half][::-1]
    w[n - 1 - half:n - 1] += r[half + n:][::-1]
    return np.sin(RAD_PER_NS_PER_MHZ * f_rabi * t) * w, duration


def _trace(t_ns, samples):
    t = np.asarray(t_ns, dtype=float)
    x = np.asarray(samples, dtype=complex)
    if x.shape[-1:] != (t.size,):
        raise ParameterError("time grid and samples must have equal length")
    return t, x


def bootstrap_amplitude(
    t_ns,
    samples,
    f_rabi: float,
    n: int = 10000,
    seed: int = 0,
):
    """Bootstrap mean and std of the demodulated amplitude.

    Each resample draws time points with replacement, rebuilds a signal on
    the original grid by nearest-sample interpolation, and demodulates it.
    The grid does not change between resamples, so one weight vector serves
    them all and each resample costs a gather and a dot product.

    samples of shape (N,) give the two floats; a (channels, N) stack gives
    two arrays with one entry per channel. Every channel sees the same
    resamples, and each entry equals the 1-D call on that channel bit for bit.
    """
    if n < 100:
        raise ParameterError(f"need at least 100 bootstrap samples, got {n}")
    t, x = _trace(t_ns, samples)
    w, duration = _demodulation_weights(t, f_rabi, LPF_CUTOFF)
    rng = np.random.default_rng(seed)

    rows = x.reshape(-1, t.size)
    amplitudes = np.empty((len(rows), n))
    npts = t.size
    for i in range(n):
        uniq = np.flatnonzero(np.bincount(rng.integers(0, npts, npts), minlength=npts))
        centres = 0.5 * (t[uniq][1:] + t[uniq][:-1])
        nearest = uniq[np.searchsorted(centres, t)]
        for row, out in zip(rows, amplitudes):
            out[i] = abs(row[nearest] @ w) / duration
    if x.ndim == 1:
        return float(np.mean(amplitudes[0])), float(np.std(amplitudes[0]))
    return np.array([np.mean(a) for a in amplitudes]), np.array([np.std(a) for a in amplitudes])


def chi_estimate(amps: SignalAmplitudes) -> ChiEstimate:
    """Gain-cancelling directionality estimate from the four amplitudes.

    chi_l = s_lL / s_lR and chi_r = s_rR / s_rL individually carry the
    unknown port conversion gains; their geometric mean cancels them:
    chi = sqrt(chi_l chi_r). fidelity = chi / (1 + chi). Vanishing
    cross-port amplitudes yield the infinity sentinel with a flag.
    """
    if amps.s_lR <= 0 or amps.s_rL <= 0:
        return ChiEstimate(
            chi_l=math.inf if amps.s_lR <= 0 else amps.s_lL / amps.s_lR,
            chi_r=math.inf if amps.s_rL <= 0 else amps.s_rR / amps.s_rL,
            chi=math.inf,
            chi_dB=math.inf,
            fidelity=1.0,
            noise_floor_limited=True,
        )
    chi_l = amps.s_lL / amps.s_lR
    chi_r = amps.s_rR / amps.s_rL
    chi = math.sqrt(chi_l * chi_r)
    chi_db = 10.0 * math.log10(chi) if chi > 0 else -math.inf
    return ChiEstimate(
        chi_l=chi_l,
        chi_r=chi_r,
        chi=chi,
        chi_dB=chi_db,
        fidelity=chi / (1.0 + chi),
    )
