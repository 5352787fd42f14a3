"""Output checks of the benchmark workloads.

Each check takes values parsed from a ricemele output and compares them with
the reference model in reference.py or with a property the method must have.
A check raises CheckFailed with a message naming what broke; it returns
nothing when the output is right. The readers at the end turn output files
into the arrays the checks take.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# |S| values are written with 10 significant digits, all at most 1
S_TOL = 1e-8


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- maps

def check_reciprocity_and_flux(s_ll, s_lr, s_rl, tol: float = S_TOL) -> None:
    """|S_LR| = |S_RL| and |S_LL|^2 + |S_RL|^2 = 1 at every map point.

    Both hold for any two-port whose only loss is into the ports.
    """
    s_ll, s_lr, s_rl = (np.asarray(a, dtype=float) for a in (s_ll, s_lr, s_rl))
    require(s_ll.shape == s_lr.shape == s_rl.shape, "S-map shapes differ")
    require(np.all(np.isfinite(s_ll)) and np.all(np.isfinite(s_rl)), "S-map has non-finite values")
    recip = float(np.max(np.abs(s_lr - s_rl)))
    require(recip <= tol, f"reciprocity broken: max ||S_LR| - |S_RL|| = {recip:.3e}")
    flux = float(np.max(np.abs(s_ll**2 + s_rl**2 - 1.0)))
    require(flux <= 10 * tol, f"flux not conserved: max ||S_LL|^2 + |S_RL|^2 - 1| = {flux:.3e}")


def check_map_points(kind: str, energies, vqs, values, device: dict, tol: float = S_TOL) -> None:
    """Sampled map values against the reference Fisher-Lee S-matrix.

    The map CSV rounds E to 10 significant digits, so each value must lie
    within the range the reference takes over that rounding interval.
    """
    worst = 0.0
    for e, vq, value in zip(energies, vqs, values):
        h = ref.hamiltonian(device["p"], device["V"], device["t1"], device["t2"],
                            device["tQ"], vq, device["VM"], device["sigma"])
        half_digit = 0.5 * 10.0 ** (math.floor(math.log10(max(abs(e), 1e-300))) - 9)
        expected = np.abs(ref.s_matrix(h, device["sigma"], [e - half_digit, e, e + half_digit])[kind])
        worst = max(worst, float(expected.min() - value), float(value - expected.max()))
    require(worst <= tol, f"{kind} map differs from the reference S-matrix by {worst:.3e}")


def check_far_detuned_peaks(freqs, vq: float, device: dict, tol_mhz: float = 1.0) -> None:
    """One transmission peak per waveguide mode, each on Re(eig(H + Sigma)).

    The reference drops the one eigenvalue that belongs to the far-detuned
    qubit and pairs the rest with the peaks in sorted order.
    """
    freqs = np.sort(np.asarray(freqs, dtype=float))
    n_modes = 4 * device["p"] + 3
    require(freqs.size == n_modes, f"expected {n_modes} far-detuned peaks, got {freqs.size}")
    h = ref.hamiltonian(device["p"], device["V"], device["t1"], device["t2"],
                        device["tQ"], vq, device["VM"], device["sigma"])
    lam, vecs = np.linalg.eig(h)
    qubit = int(np.argmax(np.abs(vecs[-1]) ** 2 / np.sum(np.abs(vecs) ** 2, axis=0)))
    poles = np.sort(np.delete(lam, qubit).real)
    gap = float(np.max(np.abs(freqs - poles)))
    require(gap <= tol_mhz, f"a far-detuned peak sits {gap:.3f} MHz from its pole (> {tol_mhz})")


# ------------------------------------------------------- edge emission

def check_sweep_levels(vq: float, levels, device: dict, tol: float = 1e-6) -> None:
    """Sweep eigenvalues at one qubit energy against the reference spectrum."""
    h = ref.hamiltonian(device["p"], device["V"], device["t1"], device["t2"],
                        device["tQ"], vq, device["VM"])
    expected = np.linalg.eigvalsh(h)
    levels = np.sort(np.asarray(levels, dtype=float))
    require(levels.size == expected.size,
            f"sweep has {levels.size} levels at VQ = {vq}, expected {expected.size}")
    worst = float(np.max(np.abs(levels - expected)))
    require(worst <= tol * max(1.0, float(np.max(np.abs(expected)))),
            f"sweep levels at VQ = {vq} differ from the reference by {worst:.3e} MHz")


def check_working_points(vq_left: float, vq_right: float, V: float, tol_mhz: float = 0.01) -> None:
    """The ideal chain is unidirectional exactly at VQ = -V and VQ = +V."""
    require(abs(vq_left + V) <= tol_mhz, f"left working point {vq_left} is not at -V = {-V}")
    require(abs(vq_right - V) <= tol_mhz, f"right working point {vq_right} is not at +V = {V}")


def check_edge_state(direction: str, vq: float, mode_index: int, probability, device: dict,
                     leak_max: float = 1e-8) -> None:
    """The written populations are a reference eigenmode and do not leak.

    The mode at the working point must carry less than leak_max of its
    weight on the side opposite to its direction.
    """
    probability = np.asarray(probability, dtype=float)
    h = ref.hamiltonian(device["p"], device["V"], device["t1"], device["t2"],
                        device["tQ"], vq, device["VM"])
    _, vecs = np.linalg.eigh(h)
    require(probability.size == vecs.shape[0], "population vector has the wrong length")
    expected = np.abs(vecs[:, mode_index]) ** 2
    worst = float(np.max(np.abs(probability - expected)))
    require(worst <= 1e-8, f"{direction} populations are not eigenmode {mode_index} (off by {worst:.2e})")
    left, right = ref.side_slices(device["p"])
    leak = float(np.sum(probability[right if direction == "left" else left]))
    require(leak < leak_max, f"{direction} edge state leaks {leak:.3e} to the opposite side")


def check_emission_balance(w_left: float, w_right: float, norm_final: float, tol: float = 1e-6) -> None:
    """Port emission accounts for the lost norm: 2 pi 1e-3 (W_L + W_R) = 1 - |psi(T)|^2."""
    emitted = ref.RAD_PER_NS_PER_MHZ * (w_left + w_right)
    lost = 1.0 - norm_final
    require(abs(emitted - lost) <= tol,
            f"emitted {emitted:.6f} but the excitation lost {lost:.6f}")


def check_dressed_t1(t1_ns: float, device: dict, vq: float, rtol: float = 1e-6) -> None:
    """T1 = 1 / (2 k |Im E|) for the dressed mode with most qubit weight."""
    h = ref.hamiltonian(device["p"], device["V"], device["t1"], device["t2"],
                        device["tQ"], vq, device["VM"], device["sigma"])
    lam, vecs = np.linalg.eig(h)
    weight = np.abs(vecs[-1]) ** 2 / np.sum(np.abs(vecs) ** 2, axis=0)
    expected = 1.0 / (2.0 * ref.RAD_PER_NS_PER_MHZ * abs(lam[int(np.argmax(weight))].imag))
    require(abs(t1_ns - expected) <= rtol * expected,
            f"dressed T1 {t1_ns:.6f} ns, reference {expected:.6f} ns")


def check_bloch_decay(t_ns, sigma_z, t_off: float, t1_ns: float, tol: float = 1e-6) -> None:
    """After the drive stops, sigma_z = -1 + (sigma_z(t_off) + 1) exp(-(t - t_off)/T1)."""
    t = np.asarray(t_ns, dtype=float)
    sz = np.asarray(sigma_z, dtype=float)
    at_off = np.flatnonzero(np.isclose(t, t_off, rtol=0.0, atol=1e-9))
    require(at_off.size == 1, f"the trace has no sample at drive-off t = {t_off} ns")
    k = int(at_off[0])
    require(k + 1 < t.size, "the trace ends at drive-off")
    expected = -1.0 + (sz[k] + 1.0) * np.exp(-(t[k:] - t_off) / t1_ns)
    worst = float(np.max(np.abs(sz[k:] - expected)))
    require(worst <= tol, f"free decay departs from exp(-t/T1) by {worst:.3e}")


def check_demodulation(amplitudes: dict, estimate: dict, truth: dict, noise_floor: float,
                       rtol: float = 0.05) -> None:
    """Each demodulated amplitude is A/2, and chi is the gain-cancelling ratio.

    amplitudes and truth map the labels lL, lR, rL, rR to the demodulated
    amplitude and to the amplitude A written into that trace; noise_floor
    is the absolute error the trace noise allows on one amplitude.
    """
    for label, a in truth.items():
        got = amplitudes[label]
        require(abs(got - a / 2.0) <= rtol * a / 2.0 + noise_floor,
                f"s_{label} = {got:.6g}, expected about A/2 = {a / 2.0:.6g}")
    chi = math.sqrt((truth["lL"] / truth["lR"]) * (truth["rR"] / truth["rL"]))
    got = estimate["chi"]
    require(got is not None and math.isfinite(got), f"chi is not finite: {got}")
    spread = rtol + sum(noise_floor / (a / 2.0) for a in truth.values())
    require(abs(got - chi) <= spread * chi, f"chi = {got:.6g}, expected about {chi:.6g}")
    require(abs(estimate["fidelity"] - got / (1.0 + got)) <= 1e-12, "fidelity is not chi / (1 + chi)")


# ------------------------------------------------------------------ fit

def check_fit(table: dict, truth: dict, reference: dict, sigmas: float = 4.0,
              agree_mhz: float = 0.01, min_covered: int = 4) -> None:
    """The fit matches the reference fit and recovers the truth.

    table maps each parameter to the {best, p2_5, p97_5, std} the fit wrote;
    truth and reference map the checked parameters to the values the data
    were made from and to the reference fit of the same data. Each best
    value must equal the reference optimum within agree_mhz and lie within
    `sigmas` of its quoted standard deviations from the truth, and the truth
    must lie inside the bootstrap interval for at least min_covered of them.
    """
    for name in truth:
        row = table[name]
        best, lo, hi, std = row["best"], row["p2_5"], row["p97_5"], row["std"]
        require(None not in (best, lo, hi, std), f"{name}: missing fit values")
        require(lo <= hi and std > 0, f"{name}: degenerate bootstrap interval [{lo}, {hi}], std {std}")
        off = abs(best - reference[name])
        require(off <= agree_mhz, f"{name}: best {best:.6f} is {off:.3g} MHz from the reference optimum")
        err = abs(best - truth[name])
        require(err <= sigmas * std,
                f"{name}: best {best:.3f} is {err / std:.1f} quoted std from the truth {truth[name]}")
    covered = sum(table[n]["p2_5"] <= truth[n] <= table[n]["p97_5"] for n in truth)
    require(covered >= min_covered,
            f"the truth lies inside the bootstrap interval for only {covered} of {len(truth)} parameters")


# -------------------------------------------------------------- readers

def read_map(path: Path):
    """(E grid, VQ grid, values[E, VQ]) from a long-form map CSV (E-major rows)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    repeats = np.flatnonzero(data[1:, 1] == data[0, 1])
    n_vq = int(repeats[0]) + 1 if repeats.size else data.shape[0]
    require(data.shape[0] % n_vq == 0, f"{path.name}: not a full grid")
    table = data.reshape(-1, n_vq, 3)
    vq_grid = table[0, :, 1]
    require(np.all(table[:, :, 1] == vq_grid), f"{path.name}: VQ columns differ between energies")
    return table[:, 0, 0], vq_grid, table[:, :, 2]


def read_columns(path: Path, names) -> dict:
    """Named float columns of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        index = [header.index(n) for n in names]
        rows = [[float(r[i]) for i in index] for r in reader if r]
    arr = np.array(rows, dtype=float).reshape(-1, len(index))
    return {n: arr[:, j] for j, n in enumerate(names)}


def read_last_row(path: Path) -> dict:
    """The header and the last data row of a CSV, as floats by column name."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        fh.seek(0, 2)
        size = fh.tell()
        fh.seek(max(size - 65536, 0))
        last = fh.read().decode().strip().splitlines()[-1]
    return dict(zip(header, (float(x) for x in last.split(","))))


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())
