"""Green's-function two-port scattering and local density of states."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import LabeledHamiltonian, ModelParams, build_hamiltonian


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


def greens_function(H: LabeledHamiltonian, E: float) -> np.ndarray:
    """Retarded Green's function G(E) = (E*I - H)^-1 of the port-dressed chain."""
    a = E * np.eye(H.matrix.shape[0], dtype=complex) - H.matrix
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(E*I - H) singular at E = {E} MHz") from exc


def _port_columns(H: LabeledHamiltonian, E: float) -> np.ndarray:
    """Columns of G(E) at the two port sites, cheaper than the full inverse."""
    n = H.matrix.shape[0]
    a = E * np.eye(n, dtype=complex) - H.matrix
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[H.roles.portL - 1, 0] = 1.0
    rhs[H.roles.portR - 1, 1] = 1.0
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(E*I - H) singular at E = {E} MHz") from exc


def s_matrix(params: ModelParams, E: float, H: LabeledHamiltonian = None) -> SMatrixPoint:
    """Two-probe scattering amplitudes from the port-dressed Green's function.

    With Gamma_p = -2 Im(sigma_p): S_RL = i sqrt(Gamma_L Gamma_R) G_RL,
    S_LL = -1 + i Gamma_L G_LL, and the symmetric counterparts. Ports must be
    lossy (strictly negative Im sigma) for the formula to make sense.
    """
    gamma_l, gamma_r = params.port_rates()
    if gamma_l <= 0 or gamma_r <= 0:
        raise ParameterError("both ports must be lossy: Im(sigma) < 0")
    if H is None:
        H = build_hamiltonian(params, include_ports=True)
    g = _port_columns(H, E)
    il, ir = H.roles.portL - 1, H.roles.portR - 1
    root = np.sqrt(gamma_l * gamma_r)
    return SMatrixPoint(
        E=float(E),
        S_LL=-1.0 + 1j * gamma_l * g[il, 0],
        S_LR=1j * root * g[il, 1],
        S_RL=1j * root * g[ir, 0],
        S_RR=-1.0 + 1j * gamma_r * g[ir, 1],
    )


def ldos(params: ModelParams, E: float, site: int, H: LabeledHamiltonian = None) -> float:
    """Local density of states -(1/pi) Im G(E) at a 1-based site, per MHz."""
    if H is None:
        H = build_hamiltonian(params, include_ports=True)
    n = H.matrix.shape[0]
    if not 1 <= site <= n:
        raise ParameterError(f"site must be in 1..{n}, got {site}")
    a = E * np.eye(n, dtype=complex) - H.matrix
    rhs = np.zeros(n, dtype=complex)
    rhs[site - 1] = 1.0
    try:
        g_col = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(E*I - H) singular at E = {E} MHz") from exc
    return float(-g_col[site - 1].imag / np.pi)


def transmission_map(params: ModelParams, E_grid, VQ_grid, kind: str = "S_RL") -> SpectrumMap:
    """|S| or LDOS (at the left port) over the grid, one eigenproblem per VQ.

    The stored E axis carries the global offset f0 so maps line up with lab
    spectra; the model itself is evaluated at the offset-free energies.
    """
    if kind not in MAP_KINDS:
        raise ParameterError(f"kind must be one of {MAP_KINDS}, got {kind!r}")
    e_grid = np.asarray(E_grid, dtype=float)
    vq_grid = np.asarray(VQ_grid, dtype=float)
    if e_grid.size == 0 or vq_grid.size == 0:
        raise ParameterError("E and VQ grids must be non-empty")

    values = np.empty((e_grid.size, vq_grid.size))
    for j, vq in enumerate(vq_grid):
        pj = params.with_(VQ=float(vq))
        H = build_hamiltonian(pj, include_ports=True)
        if kind == "LDOS":
            values[:, j] = [ldos(pj, e, H.roles.portL, H=H) for e in e_grid]
        else:
            attr = kind
            values[:, j] = [abs(getattr(s_matrix(pj, e, H=H), attr)) for e in e_grid]
    return SpectrumMap(E_grid=e_grid + params.f0, VQ_grid=vq_grid, values=values, kind=kind)


def resonance_grid(params: ModelParams, n_points: int, pad: float = 50.0) -> np.ndarray:
    """Probe-energy grid that resolves every resonance of the dressed chain.

    A uniform backbone spanning the spectrum is merged with a dense window
    around each eigenvalue, sized by its decay rate; narrow interior
    resonances would otherwise fall between uniform grid points.
    """
    H = build_hamiltonian(params, include_ports=True)
    evals = np.linalg.eigvals(H.matrix)
    lo = float(evals.real.min() - pad)
    hi = float(evals.real.max() + pad)

    n_backbone = n_points // 2
    per_mode = max((n_points - n_backbone) // len(evals), 8)
    pieces = [np.linspace(lo, hi, n_backbone)]
    for e in evals:
        w = max(abs(e.imag), 1e-6)
        pieces.append(e.real + np.linspace(-8 * w, 8 * w, per_mode))
    grid = np.unique(np.concatenate(pieces))
    if len(grid) > n_points:
        keep = np.linspace(0, len(grid) - 1, n_points).round().astype(int)
        grid = grid[np.unique(keep)]
    return grid


def write_map_csv(path, smap: SpectrumMap) -> None:
    """Long-form CSV: E_MHz, VQ_MHz, value. E is written in its shortest
    round-trip form so the dense resonance_grid windows read back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["E_MHz", "VQ_MHz", "value"])
        for i, e in enumerate(smap.E_grid):
            e_txt = repr(float(e)).removesuffix(".0")
            for j, vq in enumerate(smap.VQ_grid):
                writer.writerow([e_txt, f"{vq:.10g}", f"{smap.values[i, j]:.10g}"])


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
    with open(path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
