"""Peak extraction and Hamiltonian parameter fitting with bootstrap intervals.

The fit runs in two stages, mirroring how the spectra constrain the model:
far-detuned transmission peaks pin the waveguide parameters (t1, t2, V, VM)
plus a global frequency offset f0, and the anti-crossing gap sizes then pin
the qubit coupling tQ.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import minimize, minimize_scalar
from scipy.signal import find_peaks

from .errors import InsufficientModesError, NumericalError, ParameterError
from .model import ModelParams, _waveguide_tridiagonal, site_roles
from .scattering import SpectrumMap
from .spectral import locate_gap, participation

STAGE1_NAMES = ("t1", "t2", "V", "VM", "f0")
FIT_NAMES = STAGE1_NAMES + ("tQ",)


@dataclass(frozen=True)
class Peak:
    flux_or_vq: float
    frequency: float   # MHz
    amplitude: float


@dataclass(frozen=True)
class PeakSet:
    peaks: list
    source: str = ""

    def frequencies(self) -> np.ndarray:
        return np.array([p.frequency for p in self.peaks])

    def __len__(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class FitObservations:
    """Everything the two-stage fit consumes."""

    peaks: PeakSet
    gaps: list = field(default_factory=list)   # (VQ_MHz, gap_MHz) pairs


@dataclass(frozen=True)
class FitResult:
    best: ModelParams
    residual_rms: float
    converged: bool
    n_bootstrap: int = 0
    percentile_2_5: dict = field(default_factory=dict)
    percentile_97_5: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)
    median: dict = field(default_factory=dict)

    def parameter_table(self) -> dict:
        """Per-parameter {best, p2_5, p97_5, std} for JSON output."""
        table = {}
        for name in FIT_NAMES:
            table[name] = {
                "best": getattr(self.best, name),
                "p2_5": self.percentile_2_5.get(name),
                "p97_5": self.percentile_97_5.get(name),
                "std": self.std.get(name),
            }
        return table


def median_background_subtract(smap: SpectrumMap, window: int) -> SpectrumMap:
    """Remove the slowly varying background along the flux/VQ axis.

    For each frequency row the running median over `window` columns is
    subtracted; windows are clamped (shrunk) at the edges.
    """
    if window < 3 or window % 2 == 0:
        raise ParameterError(f"window must be an odd integer >= 3, got {window}")
    n_vq = len(smap.VQ_grid)
    if window > n_vq:
        raise ParameterError(f"window {window} exceeds the VQ axis length {n_vq}")
    half = window // 2
    background = np.empty_like(smap.values)
    for j in range(n_vq):
        lo, hi = max(0, j - half), min(n_vq, j + half + 1)
        background[:, j] = np.median(smap.values[:, lo:hi], axis=1)
    return SpectrumMap(
        E_grid=smap.E_grid,
        VQ_grid=smap.VQ_grid,
        values=smap.values - background,
        kind=smap.kind,
    )


def extract_peaks(
    energies,
    amplitudes,
    min_prominence: float,
    flux_or_vq: float = 0.0,
    source: str = "",
) -> PeakSet:
    """Local maxima with the requested prominence, parabolically refined.

    The three samples around each maximum fix a parabola whose vertex gives
    the sub-sample peak position and height.
    """
    x = np.asarray(energies, dtype=float)
    y = np.asarray(amplitudes, dtype=float)
    if x.size != y.size:
        raise ParameterError("energies and amplitudes must have equal length")
    if x.size < 3:
        raise ParameterError("need at least 3 samples to find peaks")

    idx, _ = find_peaks(y, prominence=min_prominence)
    peaks = []
    for i in idx:
        d2 = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if d2 < 0:
            shift = 0.5 * (y[i - 1] - y[i + 1]) / d2
            shift = float(np.clip(shift, -0.5, 0.5))
        else:
            shift = 0.0
        step = 0.5 * (x[i + 1] - x[i - 1])
        freq = x[i] + shift * step
        amp = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
        peaks.append(Peak(flux_or_vq=float(flux_or_vq), frequency=float(freq), amplitude=float(amp)))
    return PeakSet(peaks=peaks, source=source)


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray, vectors: bool = False):
    """Thin LAPACK stev wrapper; much lower overhead than the scipy front end."""
    w, z, info = lapack.dstev(d, e, compute_v=int(vectors))
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolver failed (info = {info})")
    return (w, z) if vectors else w


def waveguide_eigenvalues(params: ModelParams) -> np.ndarray:
    """Sorted eigenvalues (MHz) of the waveguide block, qubit excluded."""
    d, e = _waveguide_tridiagonal(params.p, params.V, params.t1, params.t2, params.VM)
    return _tridiagonal_eigh(d, e)


def model_peak_frequencies(params: ModelParams) -> np.ndarray:
    """Far-detuned transmission peak positions: waveguide eigenvalues + f0."""
    return waveguide_eigenvalues(params) + params.f0


class _GapModel:
    """Anti-crossing gap sizes with the waveguide block frozen.

    Working in the waveguide eigenbasis turns the full Hamiltonian into an
    arrow matrix: diag(waveguide eigenvalues, VQ) with the qubit coupled to
    every waveguide mode by -tQ * (mode amplitude at M).
    """

    def __init__(self, params: ModelParams, bounds: tuple[float, float] = None):
        d, e = _waveguide_tridiagonal(params.p, params.V, params.t1, params.t2, params.VM)
        evals, evecs = _tridiagonal_eigh(d, e, vectors=True)
        self.evals = evals
        m = site_roles(params.p).M - 1
        self.psi_m = evecs[m, :]
        if bounds:
            self.lower, self.upper = bounds
        else:
            # gap of the bare block, not far_detuned_gap: even a parked qubit moves
            # the edges by ~0.2 MHz. With no qubit row only M can dominate a mode.
            prob = evecs**2
            _, localized = participation(prob)
            gap = locate_gap(evals, prob[m], localized, params)
            self.lower, self.upper = gap.lower, gap.upper
        self.n = len(evals) + 1

    def gaps_at(self, tq: float, vqs: np.ndarray) -> np.ndarray:
        """In-gap level splittings at each qubit energy; nan where < 2 levels."""
        k = len(vqs)
        h = np.zeros((k, self.n, self.n))
        h[:, np.arange(self.n - 1), np.arange(self.n - 1)] = self.evals
        h[:, -1, -1] = vqs
        h[:, :-1, -1] = -tq * self.psi_m
        h[:, -1, :-1] = -tq * self.psi_m
        lam = np.linalg.eigvalsh(h)
        out = np.full(k, math.nan)
        for i in range(k):
            inside = lam[i][(lam[i] > self.lower) & (lam[i] < self.upper)]
            if inside.size >= 2:
                out[i] = np.min(np.diff(inside))
        return out

    def gap_at(self, tq: float, vq: float) -> float:
        return float(self.gaps_at(tq, np.array([float(vq)]))[0])


def model_anticrossing_gap(params: ModelParams, vq: float, bounds=None) -> float:
    """In-gap level splitting at one qubit energy for the given parameters."""
    value = _GapModel(params, bounds).gap_at(params.tQ, vq)
    if math.isnan(value):
        raise ParameterError(f"fewer than 2 in-gap levels at VQ = {vq} MHz")
    return value


def _stage1_residuals(theta, free, base, pair_idx, pair_freq, fixed_f0):
    values = dict(zip(free, theta))
    t1 = values.get("t1", base.t1)
    t2 = values.get("t2", base.t2)
    v = values.get("V", base.V)
    vm = values.get("VM", base.VM)
    if t1 < 0 or t2 < 0:
        return None
    d, e = _waveguide_tridiagonal(base.p, v, t1, t2, vm)
    evals = _tridiagonal_eigh(d, e)
    model = evals[pair_idx]
    if fixed_f0 is None:
        f0 = float(np.mean(pair_freq - model))
    else:
        f0 = fixed_f0
    return pair_freq - model - f0, f0


def _fit_once(
    initial: ModelParams,
    fixed: frozenset,
    rng: np.random.Generator,
    n_restarts: int,
    pair_idx: np.ndarray,
    pair_freq: np.ndarray,
    gap_obs: list,
):
    """One full two-stage fit; returns (params, sse, converged)."""
    free1 = [n for n in ("t1", "t2", "V", "VM") if n not in fixed]
    fit_f0 = "f0" not in fixed
    fixed_f0 = None if fit_f0 else initial.f0

    def objective(theta):
        out = _stage1_residuals(theta, free1, initial, pair_idx, pair_freq, fixed_f0)
        if out is None:
            return 1e12
        res, _ = out
        return float(res @ res)

    best = None
    converged = False
    x0_base = np.array([getattr(initial, n) for n in free1])
    scale = np.maximum(np.abs(x0_base), 10.0)
    if free1:
        for trial in range(max(n_restarts, 1)):
            x0 = x0_base if trial == 0 else x0_base + 0.1 * scale * rng.standard_normal(len(free1))
            fatol = max(1e-10, 1e-7 * (objective(x0) + 1.0))
            sol = minimize(
                objective, x0, method="Nelder-Mead",
                options={"xatol": 1e-4, "fatol": fatol, "maxiter": 2000},
            )
            if best is None or sol.fun < best.fun:
                best = sol
            converged = converged or bool(sol.success)
        theta_best = np.atleast_1d(best.x)
    else:
        theta_best = x0_base
        converged = True

    res_out = _stage1_residuals(theta_best, free1, initial, pair_idx, pair_freq, fixed_f0)
    if res_out is None:
        raise NumericalError("stage-1 optimum landed on invalid parameters")
    residuals, f0 = res_out
    values = dict(zip(free1, theta_best))
    params = initial.with_(
        t1=float(values.get("t1", initial.t1)),
        t2=float(values.get("t2", initial.t2)),
        V=float(values.get("V", initial.V)),
        VM=float(values.get("VM", initial.VM)),
        f0=float(f0),
    )

    sse = float(residuals @ residuals)
    if "tQ" not in fixed and gap_obs:
        model = _GapModel(params)
        vqs = np.array([g[0] for g in gap_obs], dtype=float)
        sizes = np.array([g[1] for g in gap_obs], dtype=float)

        def gap_objective(tq):
            if tq < 0:
                return 1e12
            model_sizes = model.gaps_at(tq, vqs)
            if np.any(np.isnan(model_sizes)):
                return 1e12
            diff = sizes - model_sizes
            return float(diff @ diff)

        hi = max(4.0 * abs(initial.tQ), 100.0, 0.5 * (model.upper - model.lower))
        sol2 = minimize_scalar(gap_objective, bounds=(0.0, hi), method="bounded",
                               options={"xatol": 1e-3})
        params = params.with_(tQ=float(sol2.x))
        sse += float(sol2.fun)
    return params, sse, converged


def fit_hamiltonian(
    far_detuned_peaks: PeakSet,
    anticrossing_gaps,
    initial: ModelParams,
    fixed=(),
    n_restarts: int = 5,
    seed: int = 0,
) -> FitResult:
    """Two-stage fit: peaks -> (t1, t2, V, VM, f0), then gap sizes -> tQ.

    Peaks are matched to waveguide eigenvalues in sorted order, so the peak
    list order is irrelevant. f0 is profiled out analytically (the optimal
    offset for fixed shape parameters is the mean residual). Derivative-free
    simplex minimization with random restarts around the initial guess.
    """
    fixed = frozenset(fixed)
    unknown = fixed - set(FIT_NAMES)
    if unknown:
        raise ParameterError(f"cannot fix unknown parameters: {sorted(unknown)}")
    gaps = list(anticrossing_gaps)

    n_free1 = len([n for n in STAGE1_NAMES if n not in fixed])
    if len(far_detuned_peaks) < n_free1:
        raise ParameterError(
            f"{len(far_detuned_peaks)} peaks cannot determine {n_free1} stage-1 parameters"
        )
    if "tQ" not in fixed and not gaps:
        raise ParameterError("tQ is free but no anti-crossing gaps were provided")

    n_modes = site_roles(initial.p).portR
    if len(far_detuned_peaks) != n_modes:
        raise ParameterError(
            f"need one peak per waveguide mode: got {len(far_detuned_peaks)}, expected {n_modes}"
        )

    freq = np.sort(far_detuned_peaks.frequencies())
    pair_idx = np.arange(n_modes)
    rng = np.random.default_rng(seed)
    params, sse, converged = _fit_once(
        initial, fixed, rng, n_restarts, pair_idx, freq, gaps,
    )
    n_obs = n_modes + len(gaps)
    return FitResult(
        best=params,
        residual_rms=math.sqrt(sse / n_obs),
        converged=converged,
    )


def bootstrap_fit(
    observations: FitObservations,
    initial: ModelParams,
    n: int = 10000,
    fixed=(),
    seed: int = 0,
    threads: int = 1,
) -> FitResult:
    """Pair bootstrap around the two-stage fit.

    The point fit assigns each sorted peak to its eigenvalue rank; resamples
    then draw (rank, frequency) pairs and (VQ, gap) pairs with replacement
    and refit from the point estimate. Reports per-parameter 2.5/97.5
    percentiles, standard deviations and medians of the bootstrap
    distribution.
    """
    if n < 100:
        raise ParameterError(f"need at least 100 bootstrap samples, got {n}")
    fixed = frozenset(fixed)
    point = fit_hamiltonian(
        observations.peaks, observations.gaps, initial, fixed=fixed, seed=seed
    )
    freq = np.sort(observations.peaks.frequencies())
    n_modes = len(freq)
    gaps = list(observations.gaps)
    rng = np.random.default_rng(seed)

    draws = []
    for _ in range(n):
        peak_pick = rng.integers(0, n_modes, n_modes)
        gap_pick = rng.integers(0, len(gaps), len(gaps)) if gaps else np.array([], dtype=int)
        draws.append((peak_pick, gap_pick))

    fitted = [n_ for n_ in FIT_NAMES if n_ not in fixed]

    def refit(draw):
        peak_pick, gap_pick = draw
        sub_gaps = [gaps[i] for i in gap_pick]
        try:
            params, _, _ = _fit_once(
                point.best, fixed, np.random.default_rng(0),
                1, peak_pick, freq[peak_pick], sub_gaps,
            )
        except (NumericalError, ParameterError, InsufficientModesError, np.linalg.LinAlgError):
            return None
        return [getattr(params, name) for name in fitted]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(refit, draws))
    else:
        rows = [refit(d) for d in draws]

    failures = sum(r is None for r in rows)
    if failures > 0.1 * n:
        raise NumericalError(
            f"{failures}/{n} bootstrap refits failed; point fit rms = {point.residual_rms:.4g} MHz"
        )
    table = np.array([r for r in rows if r is not None])

    p2, p97 = {}, {}
    std, med = {}, {}
    for j, name in enumerate(fitted):
        lo, hi = np.percentile(table[:, j], [2.5, 97.5])
        p2[name], p97[name] = float(lo), float(hi)
        std[name] = float(np.std(table[:, j]))
        med[name] = float(np.median(table[:, j]))
    return FitResult(
        best=point.best,
        residual_rms=point.residual_rms,
        converged=point.converged,
        n_bootstrap=n,
        percentile_2_5=p2,
        percentile_97_5=p97,
        std=std,
        median=med,
    )
