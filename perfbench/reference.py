"""Reference model for the benchmark's output checks, written apart from ricemele.

Everything here follows the model as the project README states it: a chain
of 4p+3 resonators with on-site energies alternating -V, +V and couplings
alternating t2 (strong, at the chain ends), t1 (weak), joined at a central
site M of energy VM; a qubit hangs off M with coupling tQ; the two end
sites carry the wide-band port self-energies. Energies are MHz, times ns.
"""

from __future__ import annotations

import math

import numpy as np

# angular rate (rad/ns) of a 1 MHz linear frequency
RAD_PER_NS_PER_MHZ = 2e-3 * math.pi

FIG1 = dict(p=10, V=37.5, t1=120.0, t2=150.0, tQ=62.5, VM=0.0, sigma=0j)
FITTED = dict(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VM=590.0, sigma=-18j)


def chain_diagonals(p: int, V: float, t1: float, t2: float, VM: float):
    """On-site energies and bond strengths of the 4p+3 site waveguide.

    Left of M: 2p+1 sites -V, +V, ..., -V joined by t2, t1, ..., t2, t1.
    M is joined to both neighbours by t1 and the right half starts with +V
    and one more t1 bond, then p strong pairs (-V, +V) bonded by t2.
    """
    onsite = [-V, +V] * p + [-V, VM, +V] + [-V, +V] * p
    bonds = [t2, t1] * p + [t1, t1, t1] + [t2, t1] * (p - 1) + [t2]
    return np.array(onsite, dtype=float), np.array(bonds, dtype=float)


def hamiltonian(p, V, t1, t2, tQ, VQ, VM, sigma=0j) -> np.ndarray:
    """Chain + qubit matrix (qubit last); sigma on both end sites if nonzero."""
    onsite, bonds = chain_diagonals(p, V, t1, t2, VM)
    n = onsite.size + 1
    h = np.zeros((n, n), dtype=complex)
    h[np.arange(n - 1), np.arange(n - 1)] = onsite
    h[np.arange(n - 2), np.arange(1, n - 1)] = -bonds
    h[np.arange(1, n - 1), np.arange(n - 2)] = -bonds
    m = 2 * p + 1
    h[m, n - 1] = h[n - 1, m] = -tQ
    h[n - 1, n - 1] = VQ
    h[0, 0] += sigma
    h[n - 2, n - 2] += sigma
    return h


def side_slices(p: int):
    """0-based index ranges of the sites left and right of M."""
    return slice(0, 2 * p + 1), slice(2 * p + 2, 4 * p + 3)


def s_matrix(h: np.ndarray, sigma: complex, energies) -> dict:
    """Fisher-Lee two-port amplitudes of a port-dressed matrix at each energy."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    n = h.shape[0]
    a = energies[:, None, None] * np.eye(n) - h[None]
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = rhs[n - 2, 1] = 1.0
    g = np.linalg.solve(a, np.broadcast_to(rhs, (energies.size, n, 2)))
    gamma = -2.0 * sigma.imag
    return {
        "S_LL": -1.0 + 1j * gamma * g[:, 0, 0],
        "S_LR": 1j * gamma * g[:, 0, 1],
        "S_RL": 1j * gamma * g[:, n - 2, 0],
        "S_RR": -1.0 + 1j * gamma * g[:, n - 2, 1],
    }


def anticrossing_gap(p, V, t1, t2, tQ, VQ, VM) -> float:
    """Smallest splitting between in-gap levels of the closed chain + qubit.

    In-gap means |E| < sqrt(V^2 + (t2 - t1)^2), the band gap of the infinite
    Rice-Mele chain; the band modes of the presets' finite chains lie outside.
    """
    levels = np.linalg.eigvalsh(hamiltonian(p, V, t1, t2, tQ, VQ, VM))
    inside = np.sort(levels[np.abs(levels) < math.sqrt(V**2 + (t2 - t1) ** 2)])
    if inside.size < 2:
        raise ValueError(f"fewer than two in-gap levels at VQ = {VQ}")
    return float(np.min(np.diff(inside)))


def waveguide_levels(p, V, t1, t2, VM) -> np.ndarray:
    """Sorted eigenvalues of the closed waveguide (qubit left out)."""
    onsite, bonds = chain_diagonals(p, V, t1, t2, VM)
    h = np.diag(onsite) - np.diag(bonds, 1) - np.diag(bonds, -1)
    return np.linalg.eigvalsh(h)


def fit_device(peak_freqs, gap_obs, guess: dict) -> dict:
    """Least-squares fit of (t1, t2, V, VM, f0) to the peaks, then tQ to the gaps.

    Sorted peaks pair with sorted waveguide levels; f0 is the mean residual.
    The fit starts from `guess`, which also supplies p.
    """
    from scipy.optimize import least_squares, minimize_scalar

    p = guess["p"]
    freqs = np.sort(np.asarray(peak_freqs, dtype=float))

    def residuals(theta):
        t1, t2, V, VM = theta
        r = freqs - waveguide_levels(p, V, t1, t2, VM)
        return r - r.mean()

    x0 = [guess["t1"], guess["t2"], guess["V"], guess["VM"]]
    sol = least_squares(residuals, x0, x_scale=10.0, xtol=1e-12, ftol=1e-12, gtol=1e-12)
    t1, t2, V, VM = sol.x
    f0 = float(np.mean(freqs - waveguide_levels(p, V, t1, t2, VM)))

    def gap_sse(tq):
        try:
            model = [anticrossing_gap(p, V, t1, t2, tq, vq, VM) for vq, _ in gap_obs]
        except ValueError:
            return 1e12
        return float(sum((g - m) ** 2 for (_, g), m in zip(gap_obs, model)))

    tq = minimize_scalar(gap_sse, bounds=(0.0, 4.0 * max(guess["tQ"], 100.0)), method="bounded",
                         options={"xatol": 1e-6}).x
    return {"t1": float(t1), "t2": float(t2), "V": float(abs(V)), "VM": float(VM),
            "f0": f0, "tQ": float(tq)}
