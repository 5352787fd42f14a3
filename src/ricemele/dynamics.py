"""Time-domain evolution: lattice emission, decay rates, Bloch and Ramsey traces.

Energies are MHz; times are ns. Phase evolution uses the angular factor
RAD_PER_NS_PER_MHZ, so a mode at E MHz acquires exp(-i 2pi 1e-3 E t).
Both traces solve a linear ODE with a constant generator (per drive segment
for the Bloch trace) exactly, through one shared eigen-propagator.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NotFoundError, NumericalError, ParameterError
from .model import (RAD_PER_NS_PER_MHZ, LabeledHamiltonian, ModelParams, _finite_fields,
                    build_hamiltonian, read_csv)
from .spectral import BandGap, eigenmodes, far_detuned_gap, in_gap_indices

# eigenvector matrices worse-conditioned than this are treated as defective:
# the eig path loses about cond(U) * 1e-16, so at most ~1e-7 below it
DEFECTIVE_COND = 1e9
# |Im E| below this (MHz) counts as a closed system -> infinite lifetime
CLOSED_IM_E = 1e-12
# infer_port_self_energy scans |Im sigma| up to this (MHz) for a bracket
SCAN_MAX = 400.0


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled complex channels over a common time grid (ns)."""

    t_grid: np.ndarray
    channels: dict

    def __post_init__(self):
        n = len(self.t_grid)
        for name, samples in self.channels.items():
            if len(samples) != n:
                raise ParameterError(f"channel {name!r} length {len(samples)} != grid {n}")

    def channel(self, name: str) -> np.ndarray:
        return self.channels[name]


@dataclass(frozen=True)
class BlochParams:
    """Driven two-level parameters: Rabi drive, relaxation and port weights.

    w_left / w_right scale how much of the coherence radiates toward each
    port; they come from the edge-state directionality at the working point.
    """

    rabi_freq: float          # MHz
    T1: float                 # ns
    T2: float                 # ns
    detuning: float = 0.0     # MHz
    w_left: float = 0.5
    w_right: float = 0.5

    def __post_init__(self):
        if self.T1 <= 0 or self.T2 <= 0:
            raise ParameterError("T1 and T2 must be positive")
        if self.T2 > 2.0 * self.T1 + 1e-12:
            raise ParameterError("T2 cannot exceed 2*T1")
        for name in ("w_left", "w_right"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        if self.w_left + self.w_right > 1.0 + 1e-12:
            raise ParameterError("w_left + w_right cannot exceed 1")


def _propagate(m: np.ndarray, eig, rate: complex, x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(rate * m * t_i) @ x0 for every t_i, one column per time.

    One eigendecomposition eig = (lam, U) = np.linalg.eig(m) serves the whole
    grid. If cond(U) >= DEFECTIVE_COND the eigenbasis is treated as defective,
    and each sample gets its own matrix exponential instead, on any grid.
    """
    lam, u = eig
    if np.linalg.cond(u) < DEFECTIVE_COND:
        coeff = np.linalg.solve(u, x0)
        phases = np.exp(rate * np.outer(lam, t))
        return u @ (phases * coeff[:, None])
    from scipy.linalg import expm
    warnings.warn("near-defective generator; falling back to one matrix exponential per sample")
    # the reshape keeps the (dim, 0) shape of an empty grid
    return np.array([expm(rate * m * ti) @ x0 for ti in t]).reshape(t.size, x0.size).T


def evolve_single_excitation(H_eff: LabeledHamiltonian, psi0, t_grid) -> TimeTrace:
    """Propagate one excitation under the (generally non-Hermitian) chain.

    Exact on any grid: psi(t) = exp(-i k H t) psi0 through _propagate, by
    eigendecomposition or, for a near-defective H, one matrix exponential
    per sample. Channels: one per site ('site_01', ...) plus the port output
    fields o_p(t) = sqrt(Gamma_p) * psi_portsite(t).
    """
    m = H_eff.matrix
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (m.shape[0],):
        raise ParameterError(f"psi0 must have length {m.shape[0]}")
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-9:
        raise ParameterError(f"psi0 must be unit-normalized, |psi0| = {norm}")
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ParameterError("time grid must be non-empty")
    psi_t = _propagate(m, H_eff.eig, -1j * RAD_PER_NS_PER_MHZ, psi0, t)

    roles = H_eff.roles
    sites = {f"site_{i + 1:02d}": psi_t[i] for i in range(m.shape[0])}
    gamma_l = -2.0 * m[roles.portL - 1, roles.portL - 1].imag
    gamma_r = -2.0 * m[roles.portR - 1, roles.portR - 1].imag
    sites["port_L"] = math.sqrt(max(gamma_l, 0.0)) * psi_t[roles.portL - 1]
    sites["port_R"] = math.sqrt(max(gamma_r, 0.0)) * psi_t[roles.portR - 1]
    return TimeTrace(t_grid=t, channels=sites)


def dressed_in_gap_mode(params: ModelParams, gap: BandGap = None):
    """(eigenvalue, unit eigenvector) of the port-dressed in-gap mode with
    maximal qubit weight."""
    if gap is None:
        gap = far_detuned_gap(params)
    return _in_gap_mode(build_hamiltonian(params, include_ports=True), gap)


def _in_gap_mode(H_eff: LabeledHamiltonian, gap: BandGap):
    """dressed_in_gap_mode of the port-dressed H_eff, from its eigenmodes (H_eff.eig)."""
    modes = eigenmodes(H_eff)
    inside = in_gap_indices(modes, gap)
    if not inside:
        raise NotFoundError(
            f"no in-gap mode: gap is ({gap.lower:.3f}, {gap.upper:.3f}) MHz"
        )
    k = max(inside, key=lambda i: modes.qubit_weight[i])
    return modes.eigenvalues[k], modes.eigenvectors[:, k]


def decay_time(energy: complex) -> float:
    """Population lifetime (ns) of a mode with complex energy E (MHz).

    T1 = 1 / (2 k |Im E|) with k the MHz-to-rad/ns factor; a closed system
    (|Im E| ~ 0) returns math.inf.
    """
    if abs(energy.imag) < CLOSED_IM_E:
        return math.inf
    return 1.0 / (2.0 * RAD_PER_NS_PER_MHZ * abs(energy.imag))


def dressed_decay_time(params: ModelParams, gap: BandGap = None) -> float:
    """Population lifetime (ns) of the dressed in-gap qubit mode (decay_time)."""
    e, _ = dressed_in_gap_mode(params, gap)
    return decay_time(e)


def infer_port_self_energy(params: ModelParams, target_T1: float) -> complex:
    """Solve for equal port self-energies -i*g reproducing a target lifetime.

    Scalar root solve of dressed_decay_time(g) = target_T1 in g = |Im sigma|;
    round-trips with dressed_decay_time to solver tolerance.
    """
    if math.isinf(target_T1):
        return 0j
    if target_T1 <= 0:
        raise ParameterError(f"target_T1 must be positive, got {target_T1}")
    from scipy.optimize import brentq
    gap = far_detuned_gap(params)

    def t1_of(g: float) -> float:
        p = params.with_(sigmaL=-1j * g, sigmaR=-1j * g)
        return dressed_decay_time(p, gap)

    # T1 decreases with g; find a sign change of T1(g) - target
    grid = np.geomspace(1e-3, SCAN_MAX, 40)
    values = np.array([t1_of(g) - target_T1 for g in grid])
    signs = np.sign(values)
    crossings = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if crossings.size == 0:
        raise NotFoundError(
            "no bracketing interval for the target lifetime; scan of |Im sigma| in "
            f"[{grid[0]:.3g}, {grid[-1]:.3g}] MHz gave T1 in "
            f"[{min(values) + target_T1:.4g}, {max(values) + target_T1:.4g}] ns"
        )
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    g_root = brentq(lambda g: t1_of(g) - target_T1, lo, hi, xtol=1e-10, rtol=1e-12)
    return -1j * g_root


def _bloch_generator(omega: float, delta: float, T1: float, T2: float) -> np.ndarray:
    """Generator of d/dt (sx, sy, sz, 1) for an x-axis drive (rad/ns)."""
    return np.array([
        [-1.0 / T2, -delta, 0.0, 0.0],
        [delta, -1.0 / T2, omega, 0.0],
        [0.0, -omega, -1.0 / T1, -1.0 / T1],
        [0.0, 0.0, 0.0, 0.0],
    ])


def bloch_rabi_trace(
    bp: BlochParams,
    t_grid,
    drive_on_until: float,
    s0=(0.0, 0.0, -1.0),
) -> TimeTrace:
    """Driven two-level Bloch trace, by default starting from the ground state.

    The x-axis drive stays on until drive_on_until (ns), then the state
    relaxes freely. The Bloch equations are linear with a constant generator
    on each drive segment, so _propagate solves them exactly on any grid.
    Channels: sigma_z, sigma_minus = (sx - i sy)/2, and port signals
    sqrt(w_p) * sigma_minus.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 2:
        raise ParameterError("time grid needs at least two points")
    if np.any(np.diff(t) <= 0):
        raise ParameterError("time grid must be strictly increasing")
    s = np.asarray(s0, dtype=float)
    if s.shape != (3,) or np.sum(s**2) > 1.0 + 1e-9:
        raise ParameterError("s0 must be a Bloch vector (sx, sy, sz) with |s0| <= 1")

    omega = RAD_PER_NS_PER_MHZ * bp.rabi_freq
    delta = RAD_PER_NS_PER_MHZ * bp.detuning
    off = float(np.clip(drive_on_until, t[0], t[-1]))
    driven = t <= off
    drive, relax = (_bloch_generator(w, delta, bp.T1, bp.T2) for w in (omega, 0.0))
    on = _propagate(drive, np.linalg.eig(drive), 1.0, np.append(s, 1.0),
                    np.append(t[driven], off) - t[0]).real
    free = _propagate(relax, np.linalg.eig(relax), 1.0, on[:, -1], t[~driven] - off).real
    out = np.concatenate([on[:3, :-1], free[:3]], axis=1)

    lengths = np.sqrt(np.sum(out**2, axis=0))
    if np.max(lengths) > 1.0 + 1e-6:
        raise NumericalError(f"Bloch vector left the sphere: max |s| = {np.max(lengths)}")

    sigma_minus = 0.5 * (out[0] - 1j * out[1])
    return TimeTrace(
        t_grid=t,
        channels={
            "sigma_z": out[2].astype(complex),
            "sigma_minus": sigma_minus,
            "port_L": math.sqrt(bp.w_left) * sigma_minus,
            "port_R": math.sqrt(bp.w_right) * sigma_minus,
        },
    )


def integrated_port_emission(trace: TimeTrace) -> tuple[float, float]:
    """Trapezoid integrals of |o_L|^2 and |o_R|^2 over the trace."""
    t = trace.t_grid
    wl = float(np.trapezoid(np.abs(trace.channel("port_L")) ** 2, t))
    wr = float(np.trapezoid(np.abs(trace.channel("port_R")) ** 2, t))
    return wl, wr


# rows per format call of write_trace_csv
TRACE_BLOCK_ROWS = 256


def write_trace_csv(path, trace: TimeTrace) -> None:
    """CSV with t_ns followed by one re/im column pair per channel.

    One % call per block of TRACE_BLOCK_ROWS rows, in csv.writer's dialect
    (comma separated, CRLF line ends); only the header can need csv quoting.
    """
    names = list(trace.channels)
    columns = [np.asarray(trace.t_grid, dtype=float)]
    for name in names:
        z = np.asarray(trace.channels[name], dtype=complex)
        columns += [z.real, z.imag]
    table = np.column_stack(columns)
    row_format = ",".join(["%.10g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t_ns"] + [f"{n}_{part}" for n in names for part in ("re", "im")])
        for start in range(0, len(table), TRACE_BLOCK_ROWS):
            block = table[start:start + TRACE_BLOCK_ROWS]
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def read_trace_csv(path) -> TimeTrace:
    """Read a TimeTrace written by write_trace_csv: a header of t_ns, then
    one <name>_re,<name>_im pair per channel.

    Malformed or non-finite data, and a header that names one channel twice,
    raise DataFormatError naming the file and line.
    """
    header, records = read_csv(path)
    if header is None:
        raise DataFormatError(f"{path}: empty trace file", line=1)
    names = [col[:-3] for col in header[1::2]]
    if header != ["t_ns"] + [f"{n}_{part}" for n in names for part in ("re", "im")]:
        raise DataFormatError(f"{path}: malformed trace header {header}", line=1)
    if len(set(names)) < len(names):
        raise DataFormatError(f"{path}: trace header names a channel twice: {header}", line=1)
    try:
        table = np.array([row for _, row in records], dtype=float).reshape(-1, len(header))
    except ValueError:
        table = None
    if table is None or len(table) != len(records) or not np.isfinite(table).all():
        for lineno, row in records:
            if len(row) != len(header):
                raise DataFormatError(f"{path}: wrong column count", line=lineno)
            _finite_fields(path, lineno, row, len(header), "trace")
    channels = {name: table[:, 1 + 2 * j] + 1j * table[:, 2 + 2 * j] for j, name in enumerate(names)}
    return TimeTrace(t_grid=table[:, 0], channels=channels)
