"""Edge-state directionality, fidelity and unidirectional working points.

Directionality is measured from the central site outward: the photonic
population left of M versus right of M, with the central-site and qubit
populations reported separately rather than folded into either side.

The unidirectional working points need no search: at VQ = -V (+V) the
qubit and the zero mode of the left (right) half-chain form an exact
eigenstate with nothing on the other side of M, so working_points returns
(-V, +V) and working_point_state builds the state it names in O(p).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotFoundError, ParameterError
from .model import ModelParams, SiteRoles, build_hamiltonian, site_roles
from .spectral import band_gap, eigenmodes, in_gap_indices

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
        return {k: None if v in (math.inf, -math.inf) else v for k, v in asdict(self).items()}


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


def working_point_state(params: ModelParams, direction: str):
    """(mode_index, unit vector) of the exact state that working_points names
    for direction ('left' or 'right'), at VQ = -V or +V on the closed chain.

    'left': the zero mode (-t2/t1)^k on sites 1, 3, ..., NL, k counted from
    the port and scaled from the larger end; psi_Q = -t1 psi_NL / tQ (set as
    tQ psi and -t1 psi_NL, so nothing overflows); M and the right half
    exactly 0; the bare qubit at tQ = 0. 'right' mirrors it. mode_index, the
    number of levels below E, is 2p + 1 + [V < 0] ([V > 0] for 'right').
    """
    roles = site_roles(params.p)
    vec = np.zeros(roles.dim)
    if params.tQ == 0:
        vec[roles.Q - 1] = 1.0
    else:
        small, large = sorted((params.t1, params.t2))
        powers = (-small / large if large else 0.0) ** np.arange(params.p + 1)
        zero_mode = powers if params.t2 <= params.t1 else powers[::-1]
        vec[roles.left_slice()][::2] = params.tQ * zero_mode
        vec[roles.Q - 1] = -params.t1 * zero_mode[-1]
        if direction == "right":
            vec[:roles.portR] = vec[:roles.portR][::-1]
        vec /= np.abs(vec).max()
    vec /= math.sqrt(np.sum(vec ** 2))
    below = params.V > 0 if direction == "right" else params.V < 0
    return 2 * params.p + 1 + int(below), vec


def working_points(params: ModelParams) -> tuple[float, float]:
    """Qubit energies (VQ_left, VQ_right) = (-V, +V) of the unidirectional
    edge states, exactly.

    Each half-chain (sites 1..NL and NR..portR) is an odd Rice-Mele chain
    whose sublattice holding both of its ends carries -V on the left and +V
    on the right, so each half has an exact zero mode at that energy: a
    vector on that sublattice whose hoppings cancel on every site of the
    other one. At VQ = -V the left zero mode plus a qubit amplitude that
    cancels the zero mode's hopping into M (possible for tQ > 0) is an
    eigenstate at E = -V with M and every site right of M empty; VQ = +V
    mirrors it. This is the bound-state picture of Bello et al., Sci. Adv.
    5, eaaw0297 (2019).
    At tQ = 0 the qubit is decoupled, and every VQ gives a bare qubit mode
    with chi = inf.
    """
    if params.V == 0:
        raise ParameterError("V must be nonzero: with V = 0 the two directions are degenerate")
    return -float(params.V), float(params.V)


def bidirectional_point(params: ModelParams) -> float:
    """Qubit energy at the anti-crossing centre (the bidirectional regime).

    This is the energy of the in-gap waveguide state with the qubit parked
    far away; parking VQ there makes the dressed states equal superpositions
    that spread to both sides.
    """
    modes = eigenmodes(build_hamiltonian(params.far_detuned()))
    gap = band_gap(modes, params)
    idx = in_gap_indices(modes, gap)
    if not idx:
        raise NotFoundError("no in-gap waveguide state to anchor the bidirectional point")
    centred = min(idx, key=lambda k: abs(modes.eigenvalues[k].real - gap.centre))
    return float(modes.eigenvalues[centred].real)
