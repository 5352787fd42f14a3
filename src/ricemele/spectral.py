"""Eigen-decomposition, band-gap identification and qubit-energy sweeps."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientModesError, NumericalError, ParameterError
from .model import LabeledHamiltonian, ModelParams, SiteRoles, build_hamiltonian, site_roles

# a candidate band mode must keep qubit and central weight below this
WEIGHT_EXCLUDE = 0.5
# and its participation ratio above this fraction of the median
LOCALIZED_PR_FRACTION = 0.5
# a gap narrower than this multiple of the median band spacing is degenerate
DEGENERATE_SPACING_FACTOR = 2.0


@dataclass(frozen=True)
class ModeSet:
    """Complete spectrum of one Hamiltonian, sorted by Re(E), plus per-mode tags.

    Eigenvectors are unit-norm columns; column k belongs to eigenvalues[k].
    qubit_weight / central_weight are |amplitude|^2 on the Q / M site,
    participation_ratio is 1 / sum_i |psi_i|^4, and localized flags modes
    whose participation ratio falls well below the median (bound states).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    qubit_weight: np.ndarray
    central_weight: np.ndarray
    participation_ratio: np.ndarray
    localized: np.ndarray
    roles: SiteRoles

    def __len__(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class BandGap:
    """Widest spectral interval free of extended band modes."""

    lower: float
    upper: float
    in_gap_mode_indices: list = field(default_factory=list)
    degenerate: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def centre(self) -> float:
        return 0.5 * (self.lower + self.upper)


def eigenmodes(H: LabeledHamiltonian) -> ModeSet:
    """Solve the full spectrum and classify every mode.

    Hermitian matrices go through the symmetric solver (orthonormal
    eigenvectors, real eigenvalues); port-dressed matrices through the
    general solver with explicit column normalization.
    """
    m = H.matrix
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {m.shape}")
    try:
        if H.hermitian:
            evals, evecs = np.linalg.eigh(m)
            evals = evals.astype(complex)
        else:
            evals, evecs = np.linalg.eig(m)
            evecs = evecs / np.linalg.norm(evecs, axis=0, keepdims=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed: {exc}; cond(H) = {np.linalg.cond(m):.3e}"
        ) from exc

    order = np.argsort(evals.real, kind="stable")
    evals, evecs = evals[order], evecs[:, order]

    prob = np.abs(evecs) ** 2
    pr, localized = participation(prob)
    return ModeSet(
        eigenvalues=evals,
        eigenvectors=evecs,
        qubit_weight=prob[H.roles.Q - 1],
        central_weight=prob[H.roles.M - 1],
        participation_ratio=pr,
        localized=localized,
        roles=H.roles,
    )


def participation(prob: np.ndarray):
    """Participation ratio of each column of prob = |psi|^2, and whether it
    falls below LOCALIZED_PR_FRACTION of the median (a localized mode)."""
    pr = 1.0 / np.sum(prob**2, axis=0)
    return pr, pr < LOCALIZED_PR_FRACTION * np.median(pr)


def band_gap(modes: ModeSet, params: ModelParams) -> BandGap:
    """Band gap of a ModeSet by locate_gap, with qubit- and central-site-
    dominated modes excluded."""
    dominant = np.maximum(modes.qubit_weight, modes.central_weight)
    return locate_gap(modes.eigenvalues.real, dominant, modes.localized, params)


def locate_gap(energies, dominant_weight, localized, params: ModelParams) -> BandGap:
    """The band-gap rule, for any set of modes with real energies.

    Modes whose dominant_weight (largest weight on a site that does not
    belong to the bands, such as M or Q) exceeds 0.5 and bound states flagged
    as localized are excluded; among the remaining band modes the gap is the
    widest interval between consecutive energies whose midpoint lies within
    +-(t1+t2) of the band centre. Modes whose energy lies strictly inside
    are listed in in_gap_mode_indices. A gap not clearly wider than the
    typical band spacing is reported with degenerate=True.
    """
    energies = np.asarray(energies)
    keep = ~((dominant_weight > WEIGHT_EXCLUDE) | localized)
    band = np.sort(energies[keep])
    if len(band) < 4:
        raise InsufficientModesError(
            f"only {len(band)} band modes left after exclusion; need >= 4"
        )

    spacings = np.diff(band)
    centre = band.mean()
    midpoints = 0.5 * (band[:-1] + band[1:])
    eligible = np.abs(midpoints - centre) <= (params.t1 + params.t2)
    if not eligible.any():
        raise InsufficientModesError("no eligible interval near the band centre")
    widest = np.flatnonzero(eligible)[np.argmax(spacings[eligible])]
    lower, upper = float(band[widest]), float(band[widest + 1])

    degenerate = (upper - lower) < DEGENERATE_SPACING_FACTOR * float(np.median(spacings))
    inside = np.flatnonzero((energies > lower) & (energies < upper))
    return BandGap(
        lower=lower,
        upper=upper,
        in_gap_mode_indices=[int(i) for i in inside],
        degenerate=degenerate,
    )


def in_gap_indices(modes: ModeSet, gap: BandGap) -> list:
    """Indices of modes whose eigenvalue real part lies strictly inside gap."""
    inside = (modes.eigenvalues.real > gap.lower) & (modes.eigenvalues.real < gap.upper)
    return [int(i) for i in np.flatnonzero(inside)]


def far_detuned_gap(params: ModelParams) -> BandGap:
    """Band gap computed with the qubit parked far outside the bands
    (ModelParams.far_detuned), which decouples it from the gap region."""
    modes = eigenmodes(build_hamiltonian(params.far_detuned()))
    return band_gap(modes, params)


def qubit_coupling_flags(modes: ModeSet, roles: SiteRoles, threshold: float) -> np.ndarray:
    """True where a mode has central-site weight above threshold.

    Intended for tQ=0 Hermitian spectra: flagged modes are the ones that
    anti-cross with the qubit once tQ is switched on.
    """
    return modes.central_weight > threshold


@dataclass(frozen=True)
class QubitSweep:
    """Eigenvalues and mode tags on a grid of qubit energies."""

    vq_grid: np.ndarray
    eigenvalues: np.ndarray       # shape (n_vq, dim), each row sorted by Re
    qubit_weight: np.ndarray
    central_weight: np.ndarray
    in_gap: np.ndarray            # bool, same shape
    gap: BandGap                  # far-detuned gap the in_gap flags refer to


def sweep_qubit_energy(
    params: ModelParams,
    VQ_grid,
    include_ports: bool = False,
) -> QubitSweep:
    """One eigensolve per grid point; in-gap flags from the far-detuned gap."""
    vq_grid = np.asarray(VQ_grid, dtype=float)
    if vq_grid.size == 0:
        raise ParameterError("VQ grid must be non-empty")

    gap = far_detuned_gap(params)
    shape = (vq_grid.size, site_roles(params.p).dim)
    evals = np.empty(shape, dtype=complex)
    qw = np.empty(shape)
    cw = np.empty(shape)
    in_gap = np.zeros(shape, dtype=bool)
    for i, vq in enumerate(vq_grid):
        modes = eigenmodes(build_hamiltonian(params.with_(VQ=float(vq)), include_ports))
        evals[i] = modes.eigenvalues
        qw[i] = modes.qubit_weight
        cw[i] = modes.central_weight
        in_gap[i, in_gap_indices(modes, gap)] = True
    return QubitSweep(vq_grid, evals, qw, cw, in_gap, gap)


def match_branches(prev: np.ndarray, cur: np.ndarray, prev_vecs=None, cur_vecs=None):
    """Permutation aligning cur eigenvalues to prev branches.

    Sorted-order pairing on the real parts; when two consecutive prev values
    nearly collide, eigenvector overlap decides whether the pair is swapped.
    """
    order = np.argsort(cur.real, kind="stable")
    if prev_vecs is None or cur_vecs is None:
        return order
    prev = np.asarray(prev)
    tol = 1e-6 * max(1.0, float(np.max(np.abs(prev))))
    for k in range(len(order) - 1):
        a, b = order[k], order[k + 1]
        if abs(prev[k].real - prev[k + 1].real) < tol:
            keep = abs(np.vdot(prev_vecs[:, k], cur_vecs[:, a]))
            swap = abs(np.vdot(prev_vecs[:, k], cur_vecs[:, b]))
            if swap > keep:
                order[k], order[k + 1] = b, a
    return order


def three_site_surrogate(params: ModelParams) -> np.ndarray:
    """4x4 surrogate keeping only sites NL, M, NR and the qubit.

    Useful inside the gap, where a strongly detuned central site reduces the
    full chain to these couplings.
    """
    return np.array(
        [
            [-params.V, -params.t1, 0.0, 0.0],
            [-params.t1, params.VM, -params.t1, -params.tQ],
            [0.0, -params.t1, params.V, 0.0],
            [0.0, -params.tQ, 0.0, params.VQ],
        ],
        dtype=complex,
    )


def write_sweep_csv(path, sweep: QubitSweep) -> None:
    """Long-form CSV: VQ_MHz, mode_index, re_E_MHz, im_E_MHz, weights, in_gap."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["VQ_MHz", "mode_index", "re_E_MHz", "im_E_MHz",
             "qubit_weight", "central_weight", "in_gap"]
        )
        for i, vq in enumerate(sweep.vq_grid):
            for k in range(sweep.eigenvalues.shape[1]):
                e = sweep.eigenvalues[i, k]
                writer.writerow(
                    [
                        f"{vq:.10g}", k, f"{e.real:.10g}", f"{e.imag:.10g}",
                        f"{sweep.qubit_weight[i, k]:.10g}",
                        f"{sweep.central_weight[i, k]:.10g}",
                        int(sweep.in_gap[i, k]),
                    ]
                )
