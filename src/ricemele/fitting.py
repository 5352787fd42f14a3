"""Hamiltonian parameter fitting with bootstrap intervals.

The fit runs in two stages, mirroring how the spectra constrain the model:
far-detuned transmission peaks pin the waveguide parameters (t1, t2, V, VM)
plus a global frequency offset f0, and the anti-crossing gap sizes then pin
the qubit coupling tQ.

Both stages run the one Levenberg-Marquardt loop, _levenberg_marquardt,
with one stop rule; a stage is only the function that evaluates its rows.
The Jacobians are exact: H is linear in its parameters, so by the
Hellmann-Feynman theorem the derivative of an eigenvalue is the
expectation value of a constant matrix in an eigenvector that the
eigensolve already returns. The solver works on a stack of rows at once,
the restarts of the point fit or a block of bootstrap resamples, and needs
only numpy. Its stop rule leaves stage 2's tQ within about 1e-5 MHz of the
optimum. A row it cannot converge is a failed restart or a failed
resample. Such rows exist: H(V) and H(-V) are mirror images, so every
eigenvalue is even in V, V = 0 is stationary for every residual, and a
resample that wanders there stalls. At V = 0 the chiral zero mode, dark at
M, is a level inside the gap, so the smallest in-gap splitting can be its
spacing to a qubit level, which stage 2 may not fit either.

Stage 2 solves no matrix. In the eigenbasis of the waveguide block the
qubit couples to every mode through its amplitude at M, so the levels are
the roots of a secular equation with one root between consecutive poles;
_arrow_gaps finds those inside the gap for every (row, VQ) at once with a
safeguarded rational iteration. Modes dark at M (tQ |psi_M| below rounding;
5-8 of the fitted device's 19) are levels themselves. Against a dense
eigensolve of the arrow matrix, the test oracle, the gaps agree to 1e-9 MHz
and their tQ slopes to 1e-8 relative, wherever rounding does not decide
whether a level at a gap edge is inside. The gap edges are those of the
bulk rule model.gap_edges. Every eigensolve builds its waveguide blocks
the one way, _waveguide_blocks.

The point fit's starts and the bootstrap's resamples are rows of the one
two-stage solve, _fit_block: stage 2 takes each row's waveguide block from
the eigenpairs of its stage-1 solve, and a block of rows its gap edges from
one gap_edges call on their eigenvalues. The point fit's f0 and residual are
those of its stage-1 solve, as every resample's are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .model import (
    ModelParams, PeakSet, _waveguide_tridiagonal, gap_edges, percentile, site_roles,
)

STAGE1_FREE = ("t1", "t2", "V", "VM")
FIT_NAMES = STAGE1_FREE + ("f0", "tQ")

# bootstrap resamples per batched solve: a block pays numpy's per-call cost
# once for all its rows and bounds the eigenvector stacks in memory (0.7 MB
# at p = 4); the results do not depend on it
BLOCK_ROWS = 256
# stage-1 starts of the point fit: the initial guess and random starts around it
N_STARTS = 5
# Levenberg-Marquardt steps before a row is reported unconverged
MAX_ITER = 50
# a row has converged once its next step would move no parameter by more
# (MHz), or would lower its sum of squares by no more than this fraction
STEP_TOL, FTOL = 1e-6, 1e-12
# Levenberg-Marquardt damping: start, floor, and the ceiling at which a row gives up
MU_START, MU_MIN, MU_MAX = 1e-3, 1e-12, 1e10
# a row gives up once cond(J^T J) passes this: rows that stall near V = 0
# pass 1e8, while rows that converge stay below about 3e6
COND_MAX = 1e8
EPS = np.finfo(float).eps
# secular-equation iterations before a root is taken where its bracket has
# shrunk to; bisection alone halves a bracket of 1e4 MHz to rounding in 60
SECULAR_MAX_ITER = 64


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
    n_failed: int = 0   # resamples whose refit failed, left out of the intervals
    percentile_2_5: dict = field(default_factory=dict)
    percentile_97_5: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)

    def parameter_table(self) -> dict:
        """Per-parameter {best, p2_5, p97_5, std} for JSON output."""
        return {name: {"best": getattr(self.best, name), "p2_5": self.percentile_2_5.get(name),
                       "p97_5": self.percentile_97_5.get(name), "std": self.std.get(name)}
                for name in FIT_NAMES}


def _waveguide_patterns(p: int):
    """The constant matrices A_j of H = t1 A_1 + t2 A_2 + V A_3 + VM A_4 for
    the waveguide block, as diagonals (4, n) and first off-diagonals (4, n-1)."""
    parts = [_waveguide_tridiagonal(p, v, t1, t2, vm) for t1, t2, v, vm in np.eye(4)]
    return np.array([d for d, _ in parts]), np.array([e for _, e in parts])


def _waveguide_blocks(patterns, theta: np.ndarray) -> np.ndarray:
    """The dense waveguide blocks (rows, n, n), one for each row of theta =
    (t1, t2, V, VM): the one builder behind every eigensolve of the fit.

    Each entry is theta @ patterns, a sum with one nonzero term, so it is
    exact. A zero entry is +0.0 where model._waveguide_tridiagonal writes
    -0.0 (-V at V = 0), and eigh may round the two differently.
    """
    diag, off = patterns
    n = diag.shape[1]
    i = np.arange(n)
    h = np.zeros((len(theta), n, n))
    h[:, i, i] = theta @ diag
    h[:, i[:-1], i[1:]] = h[:, i[1:], i[:-1]] = theta @ off
    return h


def _theta(params: ModelParams) -> np.ndarray:
    """(t1, t2, V, VM) of params as a stack of one row."""
    return np.array([[getattr(params, n) for n in STAGE1_FREE]], dtype=float)


def _waveguide_spectra(patterns, theta: np.ndarray):
    """Sorted waveguide eigenvalues (rows, n) for each row of theta =
    (t1, t2, V, VM), their exact Jacobians (rows, n, 4) and the eigenvector
    columns (rows, n, n).

    H is linear in theta, so by Hellmann-Feynman d(lambda_k)/d(theta_j) =
    z_k^T A_j z_k, with z_k the eigenvector the solve already returns.
    """
    diag, off = patterns
    lam, z = np.linalg.eigh(_waveguide_blocks(patterns, theta))
    jac = diag @ z**2 + 2.0 * off @ (z[:, :-1] * z[:, 1:])
    return lam, jac.transpose(0, 2, 1), z


def model_peak_frequencies(params: ModelParams) -> np.ndarray:
    """Far-detuned transmission peak positions: the sorted eigenvalues of the
    waveguide block (qubit excluded, eigvalsh) + f0."""
    h = _waveguide_blocks(_waveguide_patterns(params.p), _theta(params))
    return np.linalg.eigvalsh(h)[0] + params.f0


def model_anticrossing_gap(params: ModelParams, vq: float) -> float:
    """In-gap level splitting at one qubit energy for the given parameters,
    between the gap edges of model.gap_edges."""
    lam, _, z = _waveguide_spectra(_waveguide_patterns(params.p), _theta(params))
    lower, upper = gap_edges(lam, params.V, params.t1, params.t2)
    gaps, _, _ = _arrow_gaps(lam, z[:, site_roles(params.p).M - 1], lower, upper,
                             np.array([float(params.tQ)]), np.array([[float(vq)]]))
    if math.isnan(gaps[0, 0]):
        raise ParameterError(f"fewer than 2 in-gap levels at VQ = {vq} MHz")
    return float(gaps[0, 0])


def _levenberg_marquardt(evaluate, theta, state, box):
    """Levenberg-Marquardt on every row of a stack at once: the fit's one
    least-squares solver.

    Row r starts from theta[r] and stays in the box = (lower, upper), both
    broadcast to theta's shape: a step that would leave it is clipped.
    evaluate(rows, theta, state) gives the residuals (observation - model)
    of the rows listed, the model's Jacobian (rows, m, k) and their state at
    theta, a tuple of per-row arrays; it is passed each row's state at its
    last accepted point (state itself first). A step that raises the sum of
    squares (or makes it nan) multiplies the damping mu by 10; an accepted
    one scales mu by max(1/3, 1 - (2 rho - 1)^3), with rho the achieved over
    the predicted reduction (Nielsen's rule).

    A row has converged when mu <= 1, every diagonal entry of J^T J is
    positive and its next step moves no parameter by more than STEP_TOL or
    promises to lower the sum of squares by no more than the fraction FTOL;
    only the other rows are iterated again. Rows left after MAX_ITER steps,
    whose mu passes MU_MAX or whose J^T J has a condition number above
    COND_MAX are reported unconverged. Returns theta, the sum of squares
    (nan where unconverged) and converged (rows,), and the state of each
    row's returned theta.
    """
    theta = np.array(theta, dtype=float)
    lower, upper = (np.broadcast_to(b, theta.shape) for b in box)
    rows, k = theta.shape
    sse, converged = np.full(rows, math.nan), np.zeros(rows, dtype=bool)
    act = np.arange(rows)
    res, jac, state = evaluate(act, theta, state)
    cost = np.einsum("ri,ri->r", res, res)
    mu = np.full(rows, MU_START)
    eye = np.eye(k)
    for _ in range(MAX_ITER):
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        grad = (jt @ res[:, :, None])[:, :, 0]
        diag = np.diagonal(jtj, axis1=1, axis2=2)
        step = np.linalg.solve(jtj + mu[:, None, None] * np.maximum(diag, 1e-12)[:, :, None] * eye,
                               grad[:, :, None])[:, :, 0]
        step = np.clip(step, lower[act] - theta[act], upper[act] - theta[act])
        gain = 2.0 * np.einsum("ri,ri->r", step, grad) - np.einsum(
            "ri,rij,rj->r", step, jtj, step)
        done = (mu <= 1.0) & (diag > 0).all(axis=1) & (
            (np.abs(step).max(axis=1) <= STEP_TOL) | (gain <= FTOL * cost))
        sse[act[done]], converged[act[done]] = cost[done], True

        curvatures = np.linalg.eigvalsh(jtj)
        keep = ~done & (curvatures[:, -1] < COND_MAX * curvatures[:, 0])
        act, res, jac, cost, mu, step, gain = (
            x[keep] for x in (act, res, jac, cost, mu, step, gain))
        if act.size == 0:
            break
        finite = np.isfinite(step).all(axis=1)
        trial = theta[act] + np.where(finite[:, None], step, 0.0)
        t_res, t_jac, t_state = evaluate(act, trial, tuple(x[act] for x in state))
        t_cost = np.einsum("ri,ri->r", t_res, t_res)
        accept = finite & (t_cost <= cost)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (cost - t_cost) / gain
        theta[act[accept]] = trial[accept]
        for x, t in zip(state, t_state):
            x[act[accept]] = t[accept]
        res[accept], jac[accept], cost[accept] = t_res[accept], t_jac[accept], t_cost[accept]
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.clip(rho, 0.0, 1.0) - 1.0) ** 3)
        mu = np.where(accept, np.maximum(mu * shrink, MU_MIN), mu * 10.0)

        keep = mu <= MU_MAX
        act, res, jac, cost, mu = act[keep], res[keep], jac[keep], cost[keep], mu[keep]
    return theta, sse, converged, state


def _stage1_rows(patterns, free, starts, pair_idx, pair_freq, fixed_f0):
    """Stage 1 on every row of a stack at once, by _levenberg_marquardt.

    Row r starts from starts[r] = (t1, t2, V, VM), fits the columns listed
    in free and matches pair_freq[r] to the eigenvalues of rank pair_idx[r].
    f0 is profiled out by centring the residuals and the Jacobian, unless
    fixed_f0 gives it. The residuals are nan where t1 or t2 is negative, so
    no step goes there and a start there does not converge.

    Returns theta (rows, 4), f0, sse and converged (rows,), and the
    eigenvalues (rows, n) and eigenvector columns (rows, n, n) of each row's
    waveguide block, which the gap model reuses, both at its returned theta.
    """
    theta = np.array(starts, dtype=float)

    def evaluate(rows, x, state):
        th = theta[rows]
        th[:, free] = x
        lam, jac, z = _waveguide_spectra(patterns, th)
        res = pair_freq[rows] - np.take_along_axis(lam, pair_idx[rows], axis=1)
        jac = np.take_along_axis(jac, pair_idx[rows][:, :, None], axis=1)[:, :, free]
        if fixed_f0 is None:
            off = res.mean(axis=1)
            jac = jac - jac.mean(axis=1, keepdims=True)
        else:
            off = np.full(len(th), float(fixed_f0))
        res = res - off[:, None]
        res[(th[:, 0] < 0) | (th[:, 1] < 0)] = math.nan
        return res, jac, (off, lam, z)

    if not free:
        res, _, (f0, lam, z) = evaluate(np.arange(len(theta)), theta[:, free], ())
        sse = np.einsum("ri,ri->r", res, res)
        return theta, f0, sse, np.isfinite(sse), (lam, z)
    theta[:, free], sse, converged, (f0, lam, z) = _levenberg_marquardt(
        evaluate, theta[:, free], (), (-np.inf, np.inf))
    return theta, f0, sse, converged, (lam, z)


def _secular(poles, weights, left, vq, x):
    """f(x) = x - vq + sum_k weights_k / (poles_k - x) for each row of
    poles, and the sums of weights_k / (poles_k - x)^2 over the poles that
    left marks with 1 and over the others."""
    inv = 1.0 / (poles - x[:, None])
    t = weights * inv
    t2 = t * inv
    below = np.einsum("ij,ij->i", t2, left)
    return x - vq + np.einsum("ij->i", t), below, np.einsum("ij->i", t2) - below


def _middle_way(f, below, above, dl, dr):
    """Step from x to the root of a model of f between the poles at
    x + dl < x < x + dr.

    The model c + s / (dl - u) + S / (dr - u) matches f and f' at x (R.-C.
    Li, LAPACK Working Note 89): s and S are the derivative sums of the poles
    on each side times dl^2 and dr^2, and the derivative 1 of the term x goes
    to the farther pole. Of the two roots of the quadratic the one between
    the poles is taken.
    """
    far_left = -dl >= dr
    s = dl * dl * (below + far_left)
    S = dr * dr * (above + ~far_left)
    c = f - s / dl - S / dr
    qb = -(c * (dl + dr) + s + S)
    qc = dl * dr * f
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * c * qc, 0.0)), qb))
        u = q / c
        return np.where((u > dl) & (u < dr), u, qc / q)


def _arrow_gaps(evals, psi_m, lower, upper, tq, vqs, start=None):
    """In-gap level splittings (rows, k) of the arrow matrices with tQ = tq[r]
    and VQ = vqs[r, i], their tQ derivatives, and the secular roots
    (rows, k, brackets) to seed the next call with; nan where < 2 levels.

    Row r holds one waveguide block: its eigenvalues evals[r], the mode
    amplitudes psi_m[r] at M, and its gap (lower[r], upper[r]). The levels
    are the roots of the secular equation
    f(E) = E - VQ + tQ^2 sum_k psi_k^2 / (lambda_k - E) = 0, one between
    consecutive poles (Golub, SIAM Rev. 15, 318 (1973)). A mode with
    tQ |psi_k| below rounding of the matrix scale is dark: it is a level
    itself, at lambda_k. Levels count as inside the gap when they lie more
    than tol = 4 eps scale inside both edges, so a level within rounding of
    an edge, which a dense solve puts on either side, is outside. The
    brackets are lower + tol, the bright poles inside, upper - tol; f rises
    from -inf to +inf across each, so the signs of f at the two outer ends
    say which brackets hold a root. Each root comes from _middle_way steps,
    safeguarded by bisection of the bracket, from start (the roots of an
    earlier call, same bracket order) where it lies inside its bracket and
    from the midpoint otherwise, until the step or the bracket is below tol
    or f = 0. The model's poles are the bright poles on either side of the
    bracket; where a side has none, one at a distance of scale beyond the
    gap edge, outside the spectrum, stands in. The splitting is the smallest
    spacing of consecutive levels.

    dH/dtQ couples Q to every mode with -psi_m, so by Hellmann-Feynman
    d(lambda)/d(tQ) = -2 z_Q (psi_m . z_wg). The arrow eigenvector has
    z_wg,k = tQ psi_k z_Q / (e_k - lambda), which turns this into
    -2 tQ S1 / (1 + tQ^2 S2) with Sn = sum_k psi_k^2 / (e_k - lambda)^n over
    the bright modes; a dark level does not move.
    """
    rows, k = vqs.shape
    scale = np.abs(evals).max(axis=1) + tq + np.abs(vqs).max(axis=1, initial=0.0)
    tol = 4.0 * EPS * scale
    bright = tq[:, None] * np.abs(psi_m) > EPS * scale[:, None]
    lo_in, hi_in = lower + tol, upper - tol
    inside = (evals > lo_in[:, None]) & (evals < hi_in[:, None])
    # the bright poles in ascending order, padded to the full width (so that
    # no row's sums depend on the other rows) with weight 0 at a stand-in
    # pole beyond the spectrum, and one more stand-in below it
    rr = np.arange(rows)[:, None]
    order = np.argsort(~bright, axis=1, kind="stable")
    keep = bright[rr, order]
    poles = np.where(keep, evals[rr, order], (hi_in + scale)[:, None])
    psi2 = np.where(keep, psi_m[rr, order] ** 2, 0.0)
    weights = psi2 * (tq * tq)[:, None]
    padded = np.concatenate([(lo_in - scale)[:, None], poles, (hi_in + scale)[:, None]], axis=1)

    # bracket j of row r lies between poles first[r] + j - 1 and first[r] + j
    first = (poles <= lo_in[:, None]).sum(axis=1)
    count = (poles < hi_in[:, None]).sum(axis=1) - first
    nb = int(count.max(initial=0)) + 1
    j = np.arange(nb)
    pl = padded[rr, np.minimum(first[:, None] + j, padded.shape[1] - 2)]
    pr = padded[rr, np.minimum(first[:, None] + j + 1, padded.shape[1] - 1)]
    a, b = np.maximum(pl, lo_in[:, None]), np.minimum(pr, hi_in[:, None])
    with np.errstate(divide="ignore"):
        f_lo, f_hi = (e[:, None] - vqs + np.einsum("rn->r", weights / (poles - e[:, None]))[:, None]
                      for e in (lo_in, hi_in))
    last = j == count[:, None]
    has = (((j > 0) | (f_lo[..., None] < 0)) & (~last[:, None] | (f_hi[..., None] > 0))
           & ((j <= count[:, None]) & (a < b))[:, None])

    roots = np.full((rows, k, nb), math.nan)
    r_i, k_i, b_i = np.nonzero(has)
    lo, hi = a[r_i, b_i], b[r_i, b_i]
    x = 0.5 * (lo + hi)
    if start is not None and start.shape[-1]:
        seed = start[r_i, k_i, np.minimum(b_i, start.shape[-1] - 1)]
        x = np.where((b_i < start.shape[-1]) & (seed > lo) & (seed < hi), seed, x)
    # the state of each bracket still iterating; poles below the bracket are left
    at = (r_i, k_i, b_i)
    p_a, w_a = poles[r_i], weights[r_i]
    left = (np.arange(poles.shape[1]) < (first[r_i] + b_i)[:, None]).astype(float)
    v_a, pl_a, pr_a, tol_a = vqs[r_i, k_i], pl[r_i, b_i], pr[r_i, b_i], tol[r_i]
    for _ in range(SECULAR_MAX_ITER):
        f, below, above = _secular(p_a, w_a, left, v_a, x)
        lo, hi = np.where(f < 0, x, lo), np.where(f > 0, x, hi)
        u = _middle_way(f, below, above, pl_a - x, pr_a - x)
        within = (x + u > lo) & (x + u < hi)
        done = (f == 0) | (hi - lo <= tol_a) | (np.abs(u) <= tol_a)
        roots[tuple(i[done] for i in at)] = np.where(within & (f != 0), x + u, x)[done]
        rest = np.flatnonzero(~done)
        if rest.size == 0:
            break
        x = np.where(within, x + u, 0.5 * (lo + hi))
        at = tuple(i[rest] for i in at)
        p_a, w_a, left = p_a.take(rest, axis=0), w_a.take(rest, axis=0), left.take(rest, axis=0)
        x, lo, hi, v_a, pl_a, pr_a, tol_a = (
            y[rest] for y in (x, lo, hi, v_a, pl_a, pr_a, tol_a))
    else:
        roots[at] = x

    dark_in = ~bright & inside
    nd = int(dark_in.sum(axis=1).max(initial=0))
    dark = np.where(dark_in, evals, math.nan)[
        rr, np.argsort(~dark_in, axis=1, kind="stable")[:, :nd]]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / (poles[:, None, None, :] - roots[..., None])
        s1 = np.einsum("rn,rkbn->rkb", psi2, inv)
        s2 = np.einsum("rn,rkbn->rkb", psi2, inv * inv)
        t = tq[:, None, None]
        slope = -2.0 * t * s1 / (1.0 + t**2 * s2)
    pad = np.full((rows, k, 1), math.nan)
    levels = np.concatenate([np.broadcast_to(dark[:, None], (rows, k, nd)), roots, pad], axis=-1)
    slopes = np.concatenate([np.zeros((rows, k, nd)), slope, pad], axis=-1)
    order = np.argsort(levels, axis=-1)
    spacing = np.diff(np.take_along_axis(levels, order, axis=-1), axis=-1)
    spacing = np.where(np.isnan(spacing), np.inf, spacing)
    j = np.argmin(spacing, axis=-1)[..., None]
    gap = np.take_along_axis(spacing, j, axis=-1)[..., 0]
    pair = np.take_along_axis(slopes, np.take_along_axis(order, np.concatenate([j, j + 1], axis=-1),
                                                         axis=-1), axis=-1)
    return np.where(np.isinf(gap), math.nan, gap), pair[..., 1] - pair[..., 0], roots


def _stage2_rows(spectra, tq0, vqs, sizes, hi):
    """Stage 2, tQ in [0, hi[r]], on every row at once, by
    _levenberg_marquardt.

    Row r fits the gap sizes sizes[r] at the qubit energies vqs[r] with the
    waveguide block spectra = (evals, psi_m, lower, upper) of _arrow_gaps,
    starting from tq0[r]. A row's state, the secular roots that seed its
    next evaluation, is padded with nan (a bracket's midpoint then) to one
    bracket more than the block has modes. A residual is nan where a drawn
    VQ has fewer than two in-gap levels. Returns tq, sse and converged.
    """
    rows, n = spectra[0].shape

    def evaluate(a, tq, state):
        gap, slope, roots = _arrow_gaps(*(x[a] for x in spectra), tq[:, 0], vqs[a], state[0])
        padded = np.full(state[0].shape, math.nan)
        padded[..., :roots.shape[-1]] = roots
        return sizes[a] - gap, slope[:, :, None], (padded,)

    tq, sse, converged, _ = _levenberg_marquardt(
        evaluate, np.clip(tq0, 0.0, hi)[:, None], (np.full((rows, vqs.shape[1], n + 1), math.nan),),
        (0.0, hi[:, None]))
    return tq[:, 0], sse, converged


def _tq_bound(tq0, lower, upper):
    """Upper end of the tQ search range from the initial tQ and the gap edges."""
    return np.maximum(max(4.0 * abs(tq0), 100.0), 0.5 * (upper - lower))


def _fit_block(point: ModelParams, fixed: frozenset, starts, peak_picks, gap_picks, freq, gaps):
    """The two-stage fit of a block of rows: the point fit's restarts or
    bootstrap resamples.

    Row r starts stage 1 from starts[r] = (t1, t2, V, VM), fits the peak
    ranks peak_picks[r] and the gaps gap_picks[r], and starts stage 2 from
    point.tQ; point also gives the values of the fixed names. Both stages
    run batched over the rows; stage 2 takes each row's waveguide eigenpairs
    from stage 1, and the gap edges of all rows from one model.gap_edges
    call on their eigenvalues.
    Returns the fitted values (rows, fitted names in FIT_NAMES order), a row
    of nan where the fit failed: where either stage did not converge, the
    fit has no band gap, or its values are not finite with t1, t2, tQ >= 0
    (which a converged row always is). Also returns each row's stage-1 sum
    of squares, nan where stage 1 did not converge, and its stage-2 sum of
    squares, 0 where stage 2 does not run and nan where the fit failed.
    """
    fitted = [FIT_NAMES.index(n) for n in FIT_NAMES if n not in fixed]
    free_idx = [STAGE1_FREE.index(n) for n in STAGE1_FREE if n not in fixed]
    fixed_f0 = point.f0 if "f0" in fixed else None
    rows = len(starts)
    theta, f0, sse1, ok, (evals, evecs) = _stage1_rows(
        _waveguide_patterns(point.p), free_idx, starts, peak_picks, freq[peak_picks], fixed_f0,
    )
    table = np.column_stack([theta, f0, np.full(rows, point.tQ)])
    sse2 = np.zeros(rows)
    if "tQ" not in fixed and len(gaps) > 0:
        m = site_roles(point.p).M - 1
        idx = np.flatnonzero(ok)
        lower, upper = gap_edges(evals[idx], theta[idx, 2], theta[idx, 0], theta[idx, 1])
        has_gap = ~np.isnan(lower)
        ok[idx] = has_gap
        idx, lower, upper = idx[has_gap], lower[has_gap], upper[has_gap]
        obs = np.asarray(gaps, dtype=float)[gap_picks[idx]]
        table[idx, -1], sse2[idx], ok[idx] = _stage2_rows(
            (evals[idx], evecs[idx, m], lower, upper), np.full(idx.size, point.tQ),
            obs[..., 0], obs[..., 1], _tq_bound(point.tQ, lower, upper))
    ok &= np.isfinite(table).all(axis=1) & (table[:, [0, 1, -1]] >= 0).all(axis=1)
    table[~ok] = sse2[~ok] = math.nan
    return table[:, fitted], sse1, sse2


def fit_hamiltonian(
    far_detuned_peaks: PeakSet,
    anticrossing_gaps,
    initial: ModelParams,
    fixed=(),
    seed: int = 0,
) -> FitResult:
    """Two-stage fit: peaks -> (t1, t2, V, VM, f0), then gap sizes -> tQ.

    Peaks are matched to waveguide eigenvalues in sorted order, so the peak
    list order is irrelevant. f0 is profiled out analytically (the optimal
    offset for fixed shape parameters is the mean residual). The initial
    guess and N_STARTS - 1 random starts around it are fitted as one block
    of _fit_block on the unresampled data. Stage 2 starts from the initial
    tQ, which must be nonzero: at tQ = 0 no gap size depends on tQ. The fit
    is the row of the converged stage-1 start with the lowest stage-1 sum of
    squares. Raises NumericalError when no start converges in stage 1 or
    that row's fit failed.
    """
    fixed = frozenset(fixed)
    unknown = fixed - set(FIT_NAMES)
    if unknown:
        raise ParameterError(f"cannot fix unknown parameters: {sorted(unknown)}")
    gaps = list(anticrossing_gaps)

    if "tQ" not in fixed and not gaps:
        raise ParameterError("tQ is free but no anti-crossing gaps were provided")

    n_modes = site_roles(initial.p).portR
    if len(far_detuned_peaks) != n_modes:
        raise ParameterError(
            f"need one peak per waveguide mode: got {len(far_detuned_peaks)}, expected {n_modes}"
        )

    freq = np.sort(far_detuned_peaks.frequencies())
    free_idx = [STAGE1_FREE.index(n) for n in STAGE1_FREE if n not in fixed]
    starts = np.tile(_theta(initial), (N_STARTS, 1))
    scale = np.maximum(np.abs(starts[0, free_idx]), 10.0)
    rng = np.random.default_rng(seed)
    for trial in range(1, N_STARTS):
        starts[trial, free_idx] += 0.1 * scale * rng.standard_normal(len(free_idx))
    table, sse1, sse2 = _fit_block(
        initial, fixed, starts, np.tile(np.arange(n_modes), (N_STARTS, 1)),
        np.tile(np.arange(len(gaps)), (N_STARTS, 1)), freq, gaps)
    if np.isnan(sse1).all():
        raise NumericalError(f"stage 1 converged from none of its {N_STARTS} starts")
    b = int(np.nanargmin(sse1))
    if np.isnan(table[b]).any():
        raise NumericalError(f"stage 2 did not converge from tQ = {initial.tQ:.4g} MHz")
    fitted = [n for n in FIT_NAMES if n not in fixed]
    return FitResult(
        best=initial.with_(**{n: float(x) for n, x in zip(fitted, table[b])}),
        residual_rms=math.sqrt((sse1[b] + sse2[b]) / (n_modes + len(gaps))),
        converged=True,
    )


def bootstrap_fit(
    observations: FitObservations,
    initial: ModelParams,
    n: int = 10000,
    fixed=(),
    seed: int = 0,
) -> FitResult:
    """Pair bootstrap around the two-stage fit.

    The point fit assigns each sorted peak to its eigenvalue rank; resamples
    then draw (rank, frequency) pairs and (VQ, gap) pairs with replacement
    and refit from the point estimate, BLOCK_ROWS resamples per batched
    solve. A resample whose refit fails is dropped and counted in n_failed;
    more than 10 % failures abort. Reports per-parameter 2.5/97.5
    percentiles and standard deviations of the bootstrap distribution.
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

    peak_picks, gap_picks = [], []
    for _ in range(n):
        peak_picks.append(rng.integers(0, n_modes, n_modes))
        gap_picks.append(rng.integers(0, len(gaps), len(gaps)) if gaps else np.array([], dtype=int))
    peak_picks, gap_picks = np.array(peak_picks), np.array(gap_picks)

    starts = np.tile(_theta(point.best), (n, 1))
    table = np.concatenate([
        _fit_block(point.best, fixed, starts[lo:lo + BLOCK_ROWS], peak_picks[lo:lo + BLOCK_ROWS],
                   gap_picks[lo:lo + BLOCK_ROWS], freq, gaps)[0]
        for lo in range(0, n, BLOCK_ROWS)
    ])
    failed = np.isnan(table).any(axis=1)
    failures = int(failed.sum())
    if failures > 0.1 * n:
        raise NumericalError(
            f"{failures}/{n} bootstrap refits failed; point fit rms = {point.residual_rms:.4g} MHz"
        )
    table = table[~failed]

    p2, p97, std = {}, {}, {}
    for j, name in enumerate(n_ for n_ in FIT_NAMES if n_ not in fixed):
        lo, hi = percentile(table[:, j])
        p2[name], p97[name] = float(lo), float(hi)
        std[name] = float(np.std(table[:, j]))
    return FitResult(
        best=point.best,
        residual_rms=point.residual_rms,
        converged=point.converged,
        n_bootstrap=n,
        n_failed=failures,
        percentile_2_5=p2,
        percentile_97_5=p97,
        std=std,
    )
