"""Time-domain evolution: lattice emission, decay rates, Bloch and Ramsey traces.

Energies are MHz; times are ns. Phase evolution uses the angular factor
RAD_PER_NS_PER_MHZ, so a mode at E MHz acquires exp(-i 2pi 1e-3 E t).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import NotFoundError, NumericalError, ParameterError
from .model import RAD_PER_NS_PER_MHZ, LabeledHamiltonian, ModelParams, build_hamiltonian
from .spectral import BandGap, far_detuned_gap

# eigenvector matrices worse-conditioned than this are treated as defective
DEFECTIVE_COND = 1e12
# |Im E| below this (MHz) counts as a closed system -> infinite lifetime
CLOSED_IM_E = 1e-12


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


def evolve_single_excitation(H_eff: LabeledHamiltonian, psi0, t_grid) -> TimeTrace:
    """Propagate one excitation under the (generally non-Hermitian) chain.

    Uses the eigendecomposition psi(t) = U exp(-i k L t) U^-1 psi0; if the
    eigenvector matrix is too ill-conditioned the evolution falls back to
    dense stepping with the matrix exponential on a uniform grid. Channels:
    one per site ('site_01', ...) plus the port output fields
    o_p(t) = sqrt(Gamma_p) * psi_portsite(t).
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

    lam, u = np.linalg.eig(m)
    if np.linalg.cond(u) < DEFECTIVE_COND:
        coeff = np.linalg.solve(u, psi0)
        phases = np.exp(-1j * RAD_PER_NS_PER_MHZ * np.outer(lam, t))
        psi_t = u @ (phases * coeff[:, None])
    else:
        warnings.warn("near-defective Hamiltonian; falling back to dense stepping")
        steps = np.diff(t)
        if t.size > 2 and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise NumericalError("dense-stepping fallback requires a uniform time grid")
        psi_t = np.empty((m.shape[0], t.size), dtype=complex)
        u_step = expm(-1j * RAD_PER_NS_PER_MHZ * m * (steps[0] if steps.size else 0.0))
        psi = expm(-1j * RAD_PER_NS_PER_MHZ * m * t[0]) @ psi0
        for i in range(t.size):
            psi_t[:, i] = psi
            if i + 1 < t.size:
                psi = u_step @ psi

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
    H = build_hamiltonian(params, include_ports=True)
    lam, u = np.linalg.eig(H.matrix)
    u = u / np.linalg.norm(u, axis=0, keepdims=True)
    inside = np.flatnonzero((lam.real > gap.lower) & (lam.real < gap.upper))
    if inside.size == 0:
        raise NotFoundError(
            f"no in-gap mode: gap is ({gap.lower:.3f}, {gap.upper:.3f}) MHz"
        )
    qw = np.abs(u[H.roles.Q - 1, inside]) ** 2
    k = inside[int(np.argmax(qw))]
    return lam[k], u[:, k]


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


def infer_port_self_energy(
    params: ModelParams,
    target_T1: float,
    scan_max: float = 400.0,
) -> complex:
    """Solve for equal port self-energies -i*g reproducing a target lifetime.

    Scalar root solve of dressed_decay_time(g) = target_T1 in g = |Im sigma|;
    round-trips with dressed_decay_time to solver tolerance.
    """
    if math.isinf(target_T1):
        return 0j
    if target_T1 <= 0:
        raise ParameterError(f"target_T1 must be positive, got {target_T1}")
    gap = far_detuned_gap(params)

    def t1_of(g: float) -> float:
        p = params.with_(sigmaL=-1j * g, sigmaR=-1j * g)
        return dressed_decay_time(p, gap)

    # T1 decreases with g; find a sign change of T1(g) - target
    grid = np.geomspace(1e-3, scan_max, 40)
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


def _bloch_rhs(s: np.ndarray, omega: float, delta: float, T1: float, T2: float) -> np.ndarray:
    sx, sy, sz = s
    return np.array(
        [
            -delta * sy - sx / T2,
            delta * sx + omega * sz - sy / T2,
            -omega * sy - (sz + 1.0) / T1,
        ]
    )


def bloch_rabi_trace(
    bp: BlochParams,
    t_grid,
    drive_on_until: float,
    s0=(0.0, 0.0, -1.0),
) -> TimeTrace:
    """Driven two-level Bloch trace, by default starting from the ground state.

    The x-axis drive stays on until drive_on_until (ns), then the state
    relaxes freely. Fixed-step RK4 with substeps capped well below the
    fastest of the Rabi, detuning and relaxation rates. Channels: sigma_z,
    sigma_minus = (sx - i sy)/2, and port signals sqrt(w_p) * sigma_minus.
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
    rate = max(abs(omega), abs(delta), 1.0 / bp.T1, 1.0 / bp.T2)
    h_max = 0.02 / rate
    if h_max < 1e-6:
        raise NumericalError(f"required step {h_max:.3g} ns is below the stepping floor")

    out = np.empty((3, t.size))
    out[:, 0] = s
    now = t[0]
    for i in range(1, t.size):
        target = t[i]
        while now < target - 1e-12:
            # do not step across the drive switch-off
            edge = drive_on_until if now < drive_on_until < target else target
            span = edge - now
            n_sub = max(int(math.ceil(span / h_max)), 1)
            h = span / n_sub
            om = omega if now < drive_on_until else 0.0
            for _ in range(n_sub):
                k1 = _bloch_rhs(s, om, delta, bp.T1, bp.T2)
                k2 = _bloch_rhs(s + 0.5 * h * k1, om, delta, bp.T1, bp.T2)
                k3 = _bloch_rhs(s + 0.5 * h * k2, om, delta, bp.T1, bp.T2)
                k4 = _bloch_rhs(s + h * k3, om, delta, bp.T1, bp.T2)
                s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            now = edge
        out[:, i] = s

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


def ramsey_trace(detuning: float, wait_grid, T2: float) -> np.ndarray:
    """Excited-state probability after an X_pi/2 - wait - X_pi/2 sequence.

    P_e(tau) = (1 + exp(-tau/T2) cos(k * detuning * tau)) / 2.
    """
    tau = np.asarray(wait_grid, dtype=float)
    if np.any(tau < 0):
        raise ParameterError("wait times must be non-negative")
    if T2 <= 0:
        raise ParameterError("T2 must be positive")
    envelope = np.exp(-tau / T2) if not math.isinf(T2) else np.ones_like(tau)
    return 0.5 * (1.0 + envelope * np.cos(RAD_PER_NS_PER_MHZ * detuning * tau))


def integrated_port_emission(trace: TimeTrace) -> tuple[float, float]:
    """Trapezoid integrals of |o_L|^2 and |o_R|^2 over the trace."""
    t = trace.t_grid
    wl = float(np.trapezoid(np.abs(trace.channel("port_L")) ** 2, t))
    wr = float(np.trapezoid(np.abs(trace.channel("port_R")) ** 2, t))
    return wl, wr


def best_quadrature(samples: np.ndarray) -> np.ndarray:
    """Project complex samples onto the quadrature angle maximizing the signal."""
    z = np.asarray(samples, dtype=complex)
    # the dominant quadrature is the principal axis of the (re, im) cloud
    angle = 0.5 * np.angle(np.sum(z * z))
    return np.real(z * np.exp(-1j * angle))


def write_trace_csv(path, trace: TimeTrace) -> None:
    """CSV with t_ns followed by one re/im column pair per channel."""
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


def read_trace_csv(path) -> TimeTrace:
    """Read a TimeTrace written by write_trace_csv."""
    from .errors import DataFormatError

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty trace file", line=1) from None
        names = []
        for col in header[1::2]:
            if not col.endswith("_re"):
                raise DataFormatError(f"{path}: malformed trace header {header}", line=1)
            names.append(col[:-3])
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise DataFormatError(f"{path}: malformed trace row {row}", line=lineno) from None
            if len(row) != 1 + 2 * len(names):
                raise DataFormatError(f"{path}: wrong column count", line=lineno)
    t = np.array([r[0] for r in rows])
    channels = {}
    for j, name in enumerate(names):
        re = np.array([r[1 + 2 * j] for r in rows])
        im = np.array([r[2 + 2 * j] for r in rows])
        channels[name] = re + 1j * im
    return TimeTrace(t_grid=t, channels=channels)
