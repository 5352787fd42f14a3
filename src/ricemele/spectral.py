"""Eigen-decomposition, band-gap identification and qubit-energy sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .model import (LabeledHamiltonian, ModelParams, SiteRoles, build_hamiltonian, gap_edges,
                    rounding_allowance, site_roles)


@dataclass(frozen=True)
class ModeSet:
    """Complete spectrum of one Hamiltonian, sorted by Re(E), plus per-mode weights.

    Eigenvectors are unit-norm columns; column k belongs to eigenvalues[k].
    qubit_weight / central_weight are |amplitude|^2 on the Q / M site.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    qubit_weight: np.ndarray
    central_weight: np.ndarray
    roles: SiteRoles


@dataclass(frozen=True)
class BandGap:
    """Band gap of a spectrum by the bulk rule model.gap_edges: the open
    interval (lower, upper) between the levels nearest the bulk band edges
    +-sqrt(V^2 + (t1 - t2)^2) from outside, and tol, the rounding_allowance
    of the spectrum the edges came from (0 is the strict test). A uniform
    chain (V = 0, t1 = t2) has a zero-width gap on its zero mode."""

    lower: float
    upper: float
    tol: float

    @property
    def centre(self) -> float:
        return 0.5 * (self.lower + self.upper)


def eigenmodes(H: LabeledHamiltonian) -> ModeSet:
    """Solve the full spectrum and weigh every mode on Q and M.

    A real symmetric matrix (a closed chain) goes through the real symmetric
    solver; any other, a port-dressed one, through the general solver (its
    shared H.eig) with explicit column normalization.
    """
    m = H.matrix
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {m.shape}")
    try:
        if np.isrealobj(m) and np.array_equal(m, m.T):
            evals, evecs = np.linalg.eigh(m)
            evals = evals.astype(complex)
        else:
            evals, evecs = H.eig
            evecs = evecs / np.linalg.norm(evecs, axis=0, keepdims=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed: {exc}; cond(H) = {np.linalg.cond(m):.3e}"
        ) from exc

    order = np.argsort(evals.real, kind="stable")
    evals, evecs = evals[order], evecs[:, order]

    prob = np.abs(evecs) ** 2
    return ModeSet(
        eigenvalues=evals,
        eigenvectors=evecs,
        qubit_weight=prob[H.roles.Q - 1],
        central_weight=prob[H.roles.M - 1],
        roles=H.roles,
    )


def band_gap(modes: ModeSet, params: ModelParams) -> BandGap:
    """Band gap of a ModeSet by the bulk rule model.gap_edges on the real
    parts of its eigenvalues, for the chain parameters V, t1 and t2 of params."""
    energies = modes.eigenvalues.real
    lower, upper = gap_edges(energies, params.V, params.t1, params.t2)
    return BandGap(float(lower), float(upper), float(rounding_allowance(energies)))


def in_gap_indices(modes: ModeSet, gap: BandGap) -> list:
    """Indices of modes whose eigenvalue real part lies more than gap.tol
    inside both edges: a level within rounding of an edge (one dark at M,
    which no VQ moves), which a solve of another matrix puts on either side,
    is outside."""
    e = modes.eigenvalues.real
    inside = (e > gap.lower + gap.tol) & (e < gap.upper - gap.tol)
    return [int(i) for i in np.flatnonzero(inside)]


def far_detuned_gap(params: ModelParams) -> BandGap:
    """Band gap computed with the qubit parked far outside the bands
    (ModelParams.far_detuned), which decouples it from the gap region."""
    modes = eigenmodes(build_hamiltonian(params.far_detuned()))
    return band_gap(modes, params)


@dataclass(frozen=True)
class QubitSweep:
    """Eigenvalues and mode tags on a grid of qubit energies."""

    vq_grid: np.ndarray
    eigenvalues: np.ndarray       # shape (n_vq, dim), each row sorted by Re
    qubit_weight: np.ndarray
    central_weight: np.ndarray
    in_gap: np.ndarray            # bool, same shape
    gap: BandGap                  # far-detuned gap the in_gap flags refer to


def sweep_qubit_energy(params: ModelParams, VQ_grid) -> QubitSweep:
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
        modes = eigenmodes(build_hamiltonian(params.with_(VQ=float(vq))))
        evals[i] = modes.eigenvalues
        qw[i] = modes.qubit_weight
        cw[i] = modes.central_weight
        in_gap[i, in_gap_indices(modes, gap)] = True
    return QubitSweep(vq_grid, evals, qw, cw, in_gap, gap)


def write_sweep_csv(path, sweep: QubitSweep) -> None:
    """Long-form CSV: VQ_MHz, mode_index, re_E_MHz, im_E_MHz, weights, in_gap.

    One % call per VQ point for all its mode rows, streamed one VQ point at
    a time, in csv.writer's dialect (comma separated, CRLF line ends). The
    integer columns go through %g as exact small floats, so they print as
    integers.
    """
    n_modes = sweep.eigenvalues.shape[1]
    mode_index = np.arange(n_modes, dtype=float)
    block_format = (",".join(["%.10g"] * 7) + "\r\n") * n_modes
    with open(path, "w", newline="") as fh:
        fh.write("VQ_MHz,mode_index,re_E_MHz,im_E_MHz,qubit_weight,central_weight,in_gap\r\n")
        for i, vq in enumerate(np.asarray(sweep.vq_grid, dtype=float)):
            e = sweep.eigenvalues[i]
            block = np.column_stack([
                np.full(n_modes, vq), mode_index, e.real, e.imag,
                sweep.qubit_weight[i], sweep.central_weight[i], sweep.in_gap[i],
            ])
            fh.write(block_format % tuple(block.ravel().tolist()))
