"""Green's-function two-port scattering: one Green's function of the
port-dressed chain, by continued fractions in O(p) per energy with the qubit
folded in at M, behind both the point amplitudes s_matrix and the maps; and
the peaks of a transmission spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import (ModelParams, Peak, PeakSet, _waveguide_tridiagonal, _write_json,
                    build_hamiltonian, site_roles, unique)


@dataclass(frozen=True)
class SMatrixPoint:
    """Two-port scattering amplitudes at one probe energy (MHz)."""

    E: float
    S_LL: complex
    S_LR: complex
    S_RL: complex
    S_RR: complex


@dataclass(frozen=True)
class SpectrumMap:
    """Scattering magnitude or LDOS over a (probe energy x qubit energy) grid."""

    E_grid: np.ndarray
    VQ_grid: np.ndarray
    values: np.ndarray   # shape (len(E_grid), len(VQ_grid)), real >= 0
    kind: str            # one of S_LL, S_LR, S_RL, S_RR, LDOS

    def __post_init__(self):
        if self.values.shape != (len(self.E_grid), len(self.VQ_grid)):
            raise ParameterError(
                f"values shape {self.values.shape} does not match grids "
                f"({len(self.E_grid)}, {len(self.VQ_grid)})"
            )


MAP_KINDS = ("S_LL", "S_LR", "S_RL", "S_RR", "LDOS")


# probe energies per block of transmission_map's (E, VQ) qubit fold
E_BLOCK = 128
# stands in for an exact zero pivot of _half_chain's continued fractions
PIVOT_FLOOR = 1e-200
# resonance_grid's backbone reaches this far (MHz) beyond the outermost resonances
GRID_PAD = 50.0


def _half_chain(e: np.ndarray, diag: np.ndarray, bonds: np.ndarray):
    """(g, sigma, t) of the chain segment on one side of M, port at site 0
    and bonds[k] from site k to k + 1, the last one to M. The continued
    fraction dL_k = a_k - b_{k-1}^2 / dL_{k-1} (a_k = E - diag_k) from the
    port gives the self-energy sigma on M and the transfer t = prod b_k / dL_k
    (G0_aM = t G0_MM); the one from M gives the segment's own g at the port.
    A zero pivot (a port-free piece with a level at E, as E = 0 with
    V = VM = 0) becomes PIVOT_FLOOR, as in Lentz's method."""
    dl, t = e - diag[0], 1.0
    for k, bond in enumerate(bonds):
        dl[dl == 0] = PIVOT_FLOOR
        step = bond / dl
        t = t * step
        if k + 1 < len(diag):
            dl = e - diag[k + 1] - bond * step
    dr = e - diag[-1]
    for k in range(len(diag) - 2, -1, -1):
        dr[dr == 0] = PIVOT_FLOOR
        dr = e - diag[k] - bonds[k] ** 2 / dr
    return 1.0 / dr, bonds[-1] * step, t


def _chain_greens(params: ModelParams, e: np.ndarray):
    """Pieces of the recursive Green's function (Lee & Fisher, PRL 47, 882
    (1981)) of the port-dressed chain without the qubit, at the energies e:
    M splits the chain, and each side's _half_chain gives its g at its port,
    its sigma on M and its transfer t (G0_aM = t_a G0_MM). Returns g and t,
    shape (len(e), 2) over (portL, portR), and 1 / G0_MM = E - VM - sigma_L
    - sigma_R. Raises NumericalError where one is not finite."""
    d, b = _waveguide_tridiagonal(params.p, params.V, params.t1, params.t2, params.VM)
    d = d.astype(complex)
    d[[0, -1]] += params.sigmaL, params.sigmaR
    m = site_roles(params.p).M - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g_l, sigma_l, t_l = _half_chain(e, d[:m], b[:m])
        g_r, sigma_r, t_r = _half_chain(e, d[:m:-1], b[:m - 1:-1])
        inv_mm = e - d[m] - sigma_l - sigma_r
    g, t = np.stack([g_l, g_r], axis=1), np.stack([t_l, t_r], axis=1)
    bad = ~(np.isfinite(g).all(axis=1) & np.isfinite(t).all(axis=1) & np.isfinite(inv_mm))
    if bad.any():
        raise NumericalError(f"(E*I - H0) singular at E = {e[bad][0]} MHz")
    return g, t, inv_mm


def _fold(e: np.ndarray, vq: np.ndarray, tq2: float, chain, a: int, b: int) -> np.ndarray:
    """G_ab (0 = portL, 1 = portR) of the chain with the qubit at M, shape
    (len(e), len(vq)), from the pieces chain of _chain_greens at e. The qubit
    is M's third self-energy tQ^2 / (E - VQ), so G_MM = 1 / (E - VM - sigma_L
    - sigma_R - tQ^2 / (E - VQ)) and G_ab = delta_ab g_a + t_a t_b G_MM, with
    no cancellation of large terms; at E == VQ, G_MM and S_RL are exactly 0.
    A zero 1 / G_MM (M cut off by t1 = 0) becomes PIVOT_FLOOR, which drops
    out with t_L = t_R = 0. NumericalError where tQ^2 / (E - VQ) is 0 / 0."""
    g, t, inv_mm = chain
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = inv_mm[:, None] - tq2 / (e[:, None] - vq[None, :])
    if np.isnan(den).any():
        i, j = np.argwhere(np.isnan(den))[0]
        raise NumericalError(f"qubit self-energy singular at E = {e[i]} MHz, VQ = {vq[j]} MHz")
    den[den == 0] = PIVOT_FLOOR
    g_ab = (t[:, a] * t[:, b])[:, None] / den
    if a == b:
        g_ab += g[:, a, None]
    return g_ab


def s_matrix(params: ModelParams, E: float) -> SMatrixPoint:
    """Two-probe scattering amplitudes from the port-dressed Green's function.

    G is transmission_map's: _chain_greens at E, then the qubit _fold. With
    Gamma_p = -2 Im(sigma_p), the Fisher-Lee relation (PRB 23, 6851 (1981))
    gives S_RL = i sqrt(Gamma_L Gamma_R) G_RL, S_LL = -1 + i Gamma_L G_LL
    and the symmetric counterparts (G is symmetric, so S_LR = S_RL). Ports
    must be lossy (strictly negative Im sigma) for the formula to make sense.
    Raises NumericalError where G is singular at E.
    """
    gamma_l, gamma_r = params.port_rates()
    if gamma_l <= 0 or gamma_r <= 0:
        raise ParameterError("both ports must be lossy: Im(sigma) < 0")
    e, vq = np.array([float(E)]), np.array([float(params.VQ)])
    chain = _chain_greens(params, e)
    g_ll, g_rl, g_rr = (complex(_fold(e, vq, params.tQ ** 2, chain, a, b)[0, 0])
                        for a, b in ((0, 0), (1, 0), (1, 1)))
    if not np.isfinite([g_ll, g_rl, g_rr]).all():
        raise NumericalError(f"non-finite Green's function at E = {E} MHz")
    root = np.sqrt(gamma_l * gamma_r)
    return SMatrixPoint(
        E=float(E),
        S_LL=-1.0 + 1j * gamma_l * g_ll,
        S_LR=1j * root * g_rl,
        S_RL=1j * root * g_rl,
        S_RR=-1.0 + 1j * gamma_r * g_rr,
    )


def transmission_map(params: ModelParams, E_grid, VQ_grid, kind: str = "S_RL") -> SpectrumMap:
    """|S| or LDOS (at the left port) over the grid, through the qubit self-energy.

    The Green's function is s_matrix's: the chain's pieces come from
    _chain_greens for the whole E grid, and the qubit _fold runs on
    blocks of E_BLOCK energies, with the VQ axis a broadcast. The amplitudes
    then follow from the Fisher-Lee relation of s_matrix, and LDOS is
    -Im G_LL / pi.

    The stored E axis carries the global offset f0 so maps line up with lab
    spectra; the model itself is evaluated at the offset-free energies.
    Raises NumericalError where G0 or the folded G is singular on the grid.
    """
    if kind not in MAP_KINDS:
        raise ParameterError(f"kind must be one of {MAP_KINDS}, got {kind!r}")
    e_grid = np.asarray(E_grid, dtype=float)
    vq_grid = np.asarray(VQ_grid, dtype=float)
    if e_grid.size == 0 or vq_grid.size == 0:
        raise ParameterError("E and VQ grids must be non-empty")
    gamma_l, gamma_r = params.port_rates()
    if kind != "LDOS" and (gamma_l <= 0 or gamma_r <= 0):
        raise ParameterError("both ports must be lossy: Im(sigma) < 0")

    # (row, column) of G over the ports (L, R); S_LR uses G_RL, G is symmetric
    a, b = {"S_LL": (0, 0), "S_LR": (1, 0), "S_RL": (1, 0), "S_RR": (1, 1), "LDOS": (0, 0)}[kind]

    chain = _chain_greens(params, e_grid)
    values = np.empty((e_grid.size, vq_grid.size))
    for start in range(0, e_grid.size, E_BLOCK):
        block = slice(start, start + E_BLOCK)
        g = _fold(e_grid[block], vq_grid, params.tQ ** 2, tuple(x[block] for x in chain), a, b)
        if kind == "LDOS":
            values[block] = -g.imag / np.pi
        elif a != b:
            values[block] = np.sqrt(gamma_l * gamma_r) * np.abs(g)
        else:
            values[block] = np.abs(-1.0 + 1j * (gamma_l, gamma_r)[a] * g)
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite Green's function on the map grid")
    return SpectrumMap(E_grid=e_grid + params.f0, VQ_grid=vq_grid, values=values, kind=kind)


def resonance_grid(params: ModelParams, n_points: int) -> np.ndarray:
    """Probe-energy grid that resolves every resonance of the dressed chain.

    A uniform backbone spanning the spectrum is merged with a dense window
    around each eigenvalue, sized by its decay rate; narrow interior
    resonances would otherwise fall between uniform grid points. A peak
    needs three samples, so n_points must be at least 3.
    """
    if n_points < 3:
        raise ParameterError(f"a resonance grid needs at least 3 points, got {n_points}")
    H = build_hamiltonian(params, include_ports=True)
    evals = np.linalg.eigvals(H.matrix)
    lo = float(evals.real.min() - GRID_PAD)
    hi = float(evals.real.max() + GRID_PAD)

    n_backbone = n_points // 2
    per_mode = max((n_points - n_backbone) // len(evals), 8)
    pieces = [np.linspace(lo, hi, n_backbone)]
    for e in evals:
        w = max(abs(e.imag), 1e-6)
        pieces.append(e.real + np.linspace(-8 * w, 8 * w, per_mode))
    grid = unique(np.concatenate(pieces))
    if len(grid) > n_points:
        keep = np.linspace(0, len(grid) - 1, n_points).round().astype(int)
        grid = grid[unique(keep)]
    return grid


def write_map_csv(path, smap: SpectrumMap) -> None:
    """Long-form CSV: E_MHz, VQ_MHz, value. E is written in its shortest
    round-trip form so the dense resonance_grid windows read back exactly.

    The bytes are those of csv.writer (no field needs quoting, rows end in
    \r\n). Each E's rows go out as one string from one % call on a template
    with the VQ texts baked in; rows are streamed one E at a time, so the
    whole text is never held at once, to keep peak memory flat.
    """
    n_vq = len(smap.VQ_grid)
    template = "".join([f"%s,{vq:.10g},%.10g\r\n" for vq in smap.VQ_grid])
    fields = [None] * (2 * n_vq)
    with open(path, "w", newline="") as fh:
        fh.write("E_MHz,VQ_MHz,value\r\n")
        for e, row in zip(smap.E_grid.tolist(), smap.values):
            fields[0::2] = [repr(e).removesuffix(".0")] * n_vq
            fields[1::2] = row.tolist()
            fh.write(template % tuple(fields))


def write_map_header_json(path, smap: SpectrumMap, csv_name: str) -> None:
    """Companion JSON header describing the long-form CSV for plotting scripts."""
    header = {
        "kind": smap.kind,
        "csv": csv_name,
        "columns": ["E_MHz", "VQ_MHz", "value"],
        "n_E": int(len(smap.E_grid)),
        "n_VQ": int(len(smap.VQ_grid)),
        "E_range_MHz": [float(smap.E_grid[0]), float(smap.E_grid[-1])],
        "VQ_range_MHz": [float(smap.VQ_grid[0]), float(smap.VQ_grid[-1])],
    }
    _write_json(path, header)


def _prominent_maxima(y: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the interior local maxima of y with at least min_prominence.

    A maximum is a run of equal samples whose neighbours on both sides are
    strictly lower; a run that touches either end of y is not one. The run
    counts once, at its midpoint (rounded down). Its prominence is its height
    above the higher of its two bases, a base being the lowest sample between
    the maximum and the nearest strictly higher sample on that side, or the
    end of y if there is none. These are the indices
    scipy.signal.find_peaks(y, prominence=min_prominence) returns.
    """
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    ends = np.r_[starts[1:], y.size] - 1
    v = y[starts]
    k = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[k] + ends[k]) // 2
    keep = np.empty(peaks.size, dtype=bool)
    for j, i in enumerate(peaks):
        higher = np.flatnonzero(y > y[i])
        k = np.searchsorted(higher, i)
        lo = higher[k - 1] + 1 if k else 0
        hi = higher[k] if k < higher.size else y.size
        keep[j] = y[i] - max(y[lo:i].min(), y[i:hi].min()) >= min_prominence
    return peaks[keep]


def extract_peaks(
    energies,
    amplitudes,
    min_prominence: float,
    flux_or_vq: float = 0.0,
) -> PeakSet:
    """Local maxima with the requested prominence, parabolically refined.

    The maxima and their prominences follow _prominent_maxima. The three
    samples around each maximum fix a parabola whose vertex gives the
    sub-sample peak position and height. The vertex can lie above the
    largest sample, so the reported amplitude can exceed every measured
    value: on resonances sharper than a parabola over the grid spacing,
    |S_RL| peaks come out above 1 (up to 1.0116 on the fig4 preset).
    """
    x = np.asarray(energies, dtype=float)
    y = np.asarray(amplitudes, dtype=float)
    if x.size != y.size:
        raise ParameterError("energies and amplitudes must have equal length")
    if x.size < 3:
        raise ParameterError("need at least 3 samples to find peaks")
    if not np.all(np.isfinite(y)):
        raise ParameterError("amplitudes must be finite")

    peaks = []
    for i in _prominent_maxima(y, min_prominence):
        d2 = y[i - 1] - 2.0 * y[i] + y[i + 1]
        shift = float(np.clip(0.5 * (y[i - 1] - y[i + 1]) / d2, -0.5, 0.5)) if d2 < 0 else 0.0
        freq = x[i] + shift * (0.5 * (x[i + 1] - x[i - 1]))
        amp = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
        peaks.append(Peak(flux_or_vq=float(flux_or_vq), frequency=float(freq), amplitude=float(amp)))
    return PeakSet(peaks=peaks)
