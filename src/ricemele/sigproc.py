"""Directionality estimation from port signals at the Rabi frequency.

The estimator mixes each port trace with a sinusoid at the Rabi frequency,
low-pass filters to keep the demodulated zero-frequency component,
integrates, and forms gain-cancelling ratios of the four edge-state/port
amplitude combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve, firwin

from .errors import ParameterError
from .model import RAD_PER_NS_PER_MHZ

# widest allowed filter transition band, MHz
TRANSITION_BAND = 2.0


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
        def enc(x):
            return None if math.isinf(x) else x

        return {
            "chi_l": enc(self.chi_l),
            "chi_r": enc(self.chi_r),
            "chi": enc(self.chi),
            "chi_dB": enc(self.chi_dB),
            "fidelity": self.fidelity,
            "noise_floor_limited": self.noise_floor_limited,
        }


def _lowpass_taps(fs_mhz: float, cutoff_mhz: float) -> np.ndarray:
    """Windowed-sinc taps with a transition band of at most TRANSITION_BAND."""
    numtaps = int(math.ceil(3.3 * fs_mhz / TRANSITION_BAND))
    numtaps += 1 - numtaps % 2
    return firwin(numtaps, cutoff_mhz, fs=fs_mhz)


def _zero_phase_lowpass(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Symmetric-FIR filtering with reflect padding: zero phase, no edge sag."""
    half = len(taps) // 2
    padded = np.pad(x, half, mode="reflect")
    return fftconvolve(padded, taps, mode="valid")


def display_filter(t_ns, samples, cutoff: float = 75.0) -> np.ndarray:
    """Presentation low-pass used when plotting raw traces.

    Not part of the directionality estimator; zero-phase, same cutoff
    convention as the demodulator.
    """
    t = np.asarray(t_ns, dtype=float)
    x = np.asarray(samples, dtype=complex)
    if t.size != x.size or t.size < 4:
        raise ParameterError("trace too short")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-6, atol=1e-12):
        raise ParameterError("trace must be uniformly sampled")
    taps = _lowpass_taps(1e3 / dt[0], cutoff)
    if len(taps) >= t.size:
        raise ParameterError("trace too short for the display filter")
    return _zero_phase_lowpass(x, taps)


def demodulate_amplitude(t_ns, samples, f_rabi: float, lpf_cutoff: float = 6.0) -> float:
    """Signal amplitude at the Rabi frequency of one trace channel.

    Multiplies by sin(2 pi 1e-3 f_rabi t), low-pass filters with a zero-phase
    windowed sinc at lpf_cutoff MHz, integrates by the trapezoid rule and
    returns the magnitude normalized by the trace duration. A sinusoid of
    amplitude A at f_rabi demodulates to A/2.
    """
    t = np.asarray(t_ns, dtype=float)
    x = np.asarray(samples, dtype=complex)
    if t.size != x.size:
        raise ParameterError("time grid and samples must have equal length")
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
    taps = _lowpass_taps(fs_mhz, lpf_cutoff)
    if len(taps) >= t.size:
        raise ParameterError(
            f"trace too short for the {TRANSITION_BAND} MHz transition band: "
            f"needs more than {len(taps)} samples, got {t.size}"
        )
    mixed = x * np.sin(RAD_PER_NS_PER_MHZ * f_rabi * t)
    dc = _zero_phase_lowpass(mixed, taps)
    return float(abs(np.trapezoid(dc, t)) / duration)


def bootstrap_amplitude(
    t_ns,
    samples,
    f_rabi: float,
    n: int = 10000,
    lpf_cutoff: float = 6.0,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap mean and std of the demodulated amplitude.

    Each resample draws time points with replacement, rebuilds a signal on
    the original grid by nearest-sample interpolation, and demodulates it.
    """
    if n < 100:
        raise ParameterError(f"need at least 100 bootstrap samples, got {n}")
    t = np.asarray(t_ns, dtype=float)
    x = np.asarray(samples, dtype=complex)
    rng = np.random.default_rng(seed)

    amplitudes = np.empty(n)
    npts = t.size
    for i in range(n):
        uniq = np.flatnonzero(np.bincount(rng.integers(0, npts, npts), minlength=npts))
        centres = 0.5 * (t[uniq][1:] + t[uniq][:-1])
        nearest = uniq[np.searchsorted(centres, t)]
        amplitudes[i] = demodulate_amplitude(t, x[nearest], f_rabi, lpf_cutoff)
    return float(np.mean(amplitudes)), float(np.std(amplitudes))


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
