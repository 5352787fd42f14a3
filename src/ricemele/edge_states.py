"""Edge-state directionality, fidelity and unidirectional working points.

Directionality is measured from the central site outward: the photonic
population left of M versus right of M, with the central-site and qubit
populations reported separately rather than folded into either side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import NotFoundError, ParameterError
from .model import ModelParams, SiteRoles, build_hamiltonian
from .spectral import BandGap, eigenmodes, far_detuned_gap, in_gap_indices

# populations below this are treated as numerically zero -> chi = +inf
ZERO_POP = 1e-14


@dataclass(frozen=True)
class DirectionalityReport:
    """Population split of one eigenvector and the derived figures of merit.

    chi is pop_intended / pop_opposite (math.inf when the opposite side is
    numerically empty), chi_dB = 10 log10(chi), fidelity = chi / (1 + chi).
    """

    direction: str
    pop_left: float
    pop_right: float
    pop_M: float
    pop_Q: float
    chi: float
    chi_dB: float
    fidelity: float

    def as_dict(self) -> dict:
        """JSON-safe dict; infinite chi and chi_dB are encoded as null."""
        return {
            "direction": self.direction,
            "pop_left": self.pop_left,
            "pop_right": self.pop_right,
            "pop_M": self.pop_M,
            "pop_Q": self.pop_Q,
            "chi": None if math.isinf(self.chi) else self.chi,
            "chi_dB": None if math.isinf(self.chi_dB) else self.chi_dB,
            "fidelity": self.fidelity,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def directionality(mode, roles: SiteRoles, direction: str) -> DirectionalityReport:
    """Split a unit-normalized eigenvector into left/right/M/Q populations.

    direction selects which side counts as intended ('left' or 'right').
    """
    if direction not in ("left", "right"):
        raise ParameterError(f"direction must be 'left' or 'right', got {direction!r}")
    vec = np.asarray(mode, dtype=complex)
    if vec.ndim != 1 or vec.size != roles.dim:
        raise ParameterError(f"expected a vector of length {roles.dim}, got shape {vec.shape}")
    norm2 = float(np.sum(np.abs(vec) ** 2))
    if norm2 < ZERO_POP:
        raise ParameterError("zero vector has no directionality")

    prob = np.abs(vec) ** 2 / norm2
    pop_left = float(np.sum(prob[roles.left_slice()]))
    pop_right = float(np.sum(prob[roles.right_slice()]))
    pop_m = float(prob[roles.M - 1])
    pop_q = float(prob[roles.Q - 1])

    intended, opposite = (pop_left, pop_right) if direction == "left" else (pop_right, pop_left)
    if opposite < ZERO_POP:
        chi, chi_db, fidelity = math.inf, math.inf, 1.0
    else:
        chi = intended / opposite
        chi_db = 10.0 * math.log10(chi) if chi > 0 else -math.inf
        fidelity = chi / (1.0 + chi)
    return DirectionalityReport(
        direction=direction,
        pop_left=pop_left,
        pop_right=pop_right,
        pop_M=pop_m,
        pop_Q=pop_q,
        chi=chi,
        chi_dB=chi_db,
        fidelity=fidelity,
    )


def edge_mode(params: ModelParams, gap: BandGap, direction: str):
    """The in-gap mode of H(params) with the largest chi toward direction.

    Returns (modes, index, report), the first such mode on ties, or None
    when no mode lies inside the gap.
    """
    modes = eigenmodes(build_hamiltonian(params))
    best = None
    for k in in_gap_indices(modes, gap):
        rep = directionality(modes.eigenvectors[:, k], modes.roles, direction)
        if best is None or rep.chi > best[2].chi:
            best = (modes, k, rep)
    return best


def _best_in_gap_chi(params: ModelParams, vq: float, gap: BandGap, direction: str) -> float:
    """Largest chi over the in-gap modes at one qubit energy; nan if none."""
    best = edge_mode(params.with_(VQ=float(vq)), gap, direction)
    return math.nan if best is None else best[2].chi


def working_points(
    params: ModelParams,
    gap: BandGap = None,
    scan_points: int = 161,
) -> tuple[float, float]:
    """Qubit energies (VQ_left, VQ_right) maximizing in-gap directionality.

    A coarse scan across the band gap locates the chi maximum for each
    direction; a bounded scalar refinement then polishes it. For the ideal
    model both points converge onto VQ = -V and +V.
    """
    if params.V == 0:
        raise ParameterError("V must be nonzero: with V = 0 the two directions are degenerate")
    if gap is None:
        gap = far_detuned_gap(params)
    margin = 0.02 * gap.width
    grid = np.linspace(gap.lower + margin, gap.upper - margin, scan_points)

    found = {}
    for direction in ("left", "right"):
        chis = np.array([_best_in_gap_chi(params, vq, gap, direction) for vq in grid])
        valid = np.isfinite(chis) | np.isposinf(chis)
        if not valid.any():
            raise NotFoundError(f"no in-gap state found across the scan range for {direction}")
        # -log10(chi) is smooth through the divergence once capped
        objective = -np.log10(np.clip(np.where(valid, chis, 1e-300), 1e-300, 1e300))
        k = int(np.argmin(objective))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]

        def neg_log_chi(vq):
            chi = _best_in_gap_chi(params, vq, gap, direction)
            if math.isnan(chi):
                return 300.0
            return -math.log10(min(max(chi, 1e-300), 1e300))

        res = minimize_scalar(neg_log_chi, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-4})
        found[direction] = float(res.x)
    return found["left"], found["right"]


def bidirectional_point(params: ModelParams, gap: BandGap = None) -> float:
    """Qubit energy at the anti-crossing centre (the bidirectional regime).

    This is the energy of the in-gap waveguide state with the qubit parked
    far away; parking VQ there makes the dressed states equal superpositions
    that spread to both sides.
    """
    if gap is None:
        gap = far_detuned_gap(params)
    modes = eigenmodes(build_hamiltonian(params.far_detuned()))
    idx = in_gap_indices(modes, gap)
    if not idx:
        raise NotFoundError("no in-gap waveguide state to anchor the bidirectional point")
    centred = min(idx, key=lambda k: abs(modes.eigenvalues[k].real - gap.centre))
    return float(modes.eigenvalues[centred].real)
