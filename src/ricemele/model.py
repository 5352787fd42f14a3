"""Rice-Mele waveguide with a side-coupled qubit: lattice layout and Hamiltonian.

The waveguide is a chain of 4p+3 resonator sites with alternating on-site
energies (-V, +V) and alternating tunnel couplings (t2 strong, t1 weak),
joined at a central site M whose energy VM may differ. A qubit site Q hangs
off M with coupling tQ. Two ports terminate the chain at sites 1 and 4p+3
and enter as complex self-energies on the diagonal. All energies are linear
frequencies in MHz; time-domain code converts via RAD_PER_NS_PER_MHZ.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError

# angular rate (rad/ns) of a 1 MHz linear frequency
RAD_PER_NS_PER_MHZ = 2e-3 * np.pi

# the largest dense (4p+4)^2 complex matrix a ModelParams may ask for, in
# bytes (p <= 2047): spectrum, scatter and emit build one (build_hamiltonian),
# fit only (4p+3)^2 stacks and chi none; the eigensolves hold a few copies
# more, so a run stays within a few GiB. The longest chains in use (p = 200)
# need 10 MiB; at the bound one dense eigensolve, O(n^3), takes minutes.
MAX_MATRIX_BYTES = 2**30


def percentile(values, q=(2.5, 97.5)) -> np.ndarray:
    """np.percentile(values, q) of a non-empty 1-D array with the default
    linear method, bit for bit, without its numpy.ma import: the same
    virtual index (n - 1) q / 100, the same partition and the same
    interpolation, which for a weight t >= 0.5 works back from the upper
    neighbour. NaN wherever values holds one."""
    arr = np.array(values, dtype=float).ravel()
    n = arr.size
    virtual = (n - 1) * np.true_divide(q, 100)
    previous = np.floor(virtual)
    following = previous + 1
    above = virtual >= n - 1
    previous[above] = following[above] = -1
    gamma = virtual - previous
    previous, following = previous.astype(np.intp), following.astype(np.intp)
    arr.partition(unique(np.concatenate(([0, -1], previous, following))))
    if np.isnan(arr[-1]):
        return np.full(virtual.shape, arr[-1])
    a, b = arr[previous], arr[following]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def unique(values) -> np.ndarray:
    """np.unique of a non-empty NaN-free array, bit for bit: its sorted values
    with each run of equal ones kept once, without the numpy.ma import of
    np.unique's first call."""
    s = np.sort(values, axis=None)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


@dataclass(frozen=True)
class ModelParams:
    """Hamiltonian and port parameters, all in MHz except the integer p.

    p      -- number of strongly coupled site pairs per half-chain
    V      -- on-site modulation amplitude (sites alternate -V, +V)
    t1, t2 -- weak / strong tunnel couplings
    tQ     -- qubit-to-central-site coupling
    VQ     -- qubit energy
    VM     -- central-site energy
    sigmaL, sigmaR -- wide-band port self-energies, Im <= 0 (passive)
    f0     -- global frequency offset used when comparing with lab spectra
    """

    p: int
    V: float
    t1: float
    t2: float
    tQ: float
    VQ: float
    VM: float = 0.0
    sigmaL: complex = 0j
    sigmaR: complex = 0j
    f0: float = 0.0

    def __post_init__(self):
        for name in ("p", "V", "t1", "t2", "tQ", "VQ", "VM", "sigmaL", "sigmaR", "f0"):
            if not cmath.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if int(self.p) != self.p or self.p < 1:
            raise ParameterError(f"p must be an integer >= 1, got {self.p}")
        if 16 * (4 * int(self.p) + 4) ** 2 > MAX_MATRIX_BYTES:
            raise ParameterError(f"p = {self.p}: a dense (4p+4)^2 complex Hamiltonian "
                                 f"would exceed {MAX_MATRIX_BYTES} bytes")
        for name in ("t1", "t2", "tQ"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("sigmaL", "sigmaR"):
            if complex(getattr(self, name)).imag > 0:
                raise ParameterError(f"Im({name}) must be <= 0 (passive port)")

    def with_(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def far_detuned(self) -> "ModelParams":
        """Copy with the qubit parked far outside the bands: VQ sits ten times
        the largest of t1, t2, |V| and 1 MHz above VM."""
        return replace(self, VQ=10.0 * max(self.t1, self.t2, abs(self.V), 1.0) + self.VM)

    def port_rates(self) -> tuple[float, float]:
        """Decay rates (Gamma_L, Gamma_R) = -2 Im(sigma) in MHz."""
        return -2.0 * complex(self.sigmaL).imag, -2.0 * complex(self.sigmaR).imag


@dataclass(frozen=True)
class SiteRoles:
    """Named 1-based site indices for a chain with p strong pairs per half."""

    dim: int
    portL: int
    portR: int
    M: int
    NL: int
    NR: int
    Q: int

    def left_slice(self) -> slice:
        """0-based slice of sites 1..NL (left of the central site)."""
        return slice(0, self.NL)

    def right_slice(self) -> slice:
        """0-based slice of sites NR..portR (right of the central site)."""
        return slice(self.NR - 1, self.portR)


def site_roles(p: int) -> SiteRoles:
    """Resolve the canonical site layout for p strong pairs per half-chain."""
    if int(p) != p or p < 1:
        raise ParameterError(f"p must be an integer >= 1, got {p}")
    p = int(p)
    return SiteRoles(
        dim=4 * p + 4,
        portL=1,
        portR=4 * p + 3,
        M=2 * p + 2,
        NL=2 * p + 1,
        NR=2 * p + 3,
        Q=4 * p + 4,
    )


@dataclass(frozen=True)
class Peak:
    flux_or_vq: float
    frequency: float   # MHz
    amplitude: float


@dataclass(frozen=True)
class PeakSet:
    peaks: list

    def frequencies(self) -> np.ndarray:
        return np.array([p.frequency for p in self.peaks])

    def __len__(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class LabeledHamiltonian:
    """Dense Hamiltonian (MHz), real for a closed chain, and its site labels."""

    matrix: np.ndarray
    roles: SiteRoles

    @cached_property
    def eig(self):
        """np.linalg.eig of the matrix, solved once for all its users."""
        return np.linalg.eig(self.matrix)


def _waveguide_tridiagonal(p: int, V: float, t1: float, t2: float, VM: float):
    """Diagonal d and off-diagonal e of the waveguide block, sites 1..portR.

    Sites 1..NL alternate -V, +V starting at -V; M carries VM; NR carries +V;
    sites NR+1..portR alternate starting at -V. The bonds are the negatives
    of the couplings: t2 on the strong bonds at both chain ends, t1 on the
    weak bonds and the three bonds surrounding M.
    """
    r = site_roles(p)
    d = np.empty(r.portR)
    d[0: r.NL: 2] = -V
    d[1: r.NL: 2] = +V
    d[r.M - 1] = VM
    d[r.NR - 1] = +V
    d[r.NR:: 2] = -V
    d[r.NR + 1:: 2] = +V
    e = np.empty(r.portR - 1)
    e[0: r.NL - 1: 2] = -t2
    e[1: r.NL - 1: 2] = -t1
    e[r.NL - 1: r.NR] = -t1
    e[r.NR:: 2] = -t2
    e[r.NR + 1:: 2] = -t1
    return d, e


def rounding_allowance(energies):
    """4 eps of the largest |E| of each row of energies (..., n): how far
    rounding can move a level of that spectrum, to either side of a gap edge."""
    return 4.0 * np.finfo(float).eps * np.abs(energies).max(axis=-1)


def gap_edges(energies, V, t1, t2):
    """(lower, upper) band-gap edges of each row of energies (..., n), with
    V, t1 and t2 broadcast over the leading axes.

    The bulk Rice-Mele bands are +-sqrt(V^2 + t1^2 + t2^2 + 2 t1 t2 cos k)
    (Rice & Mele, PRL 49, 1455 (1982)), so a level with |E| < E_b =
    sqrt(V^2 + (t1 - t2)^2) is a bound state. The lower edge is the largest
    energy <= -E_b, the upper edge the smallest >= +E_b, each to within the
    row's rounding_allowance, so a level rounded off +-E_b (a uniform
    chain's zero mode at E_b = 0) is an edge; the gap is the open interval
    between them. nan where a side has no energy, which a Hermitian
    Hamiltonian of this model never gives: by interlacing with the 2 x 2
    block of its stronger bond it has levels beyond
    +-sqrt(V^2 + max(t1, t2)^2).
    """
    e = np.asarray(energies, dtype=float)
    eb = np.hypot(V, np.subtract(t1, t2))
    tol = rounding_allowance(e)
    lower = np.where(e <= (tol - eb)[..., None], e, -np.inf).max(axis=-1)
    upper = np.where(e >= (eb - tol)[..., None], e, np.inf).min(axis=-1)
    return np.where(np.isinf(lower), np.nan, lower), np.where(np.isinf(upper), np.nan, upper)


def build_hamiltonian(params: ModelParams, include_ports: bool = False) -> LabeledHamiltonian:
    """Construct the full chain + qubit Hamiltonian.

    The waveguide block is the tridiagonal (d, e) of _waveguide_tridiagonal;
    the qubit site Q carries VQ and the single (M, Q) bond -tQ. Every
    coupling is real, so the closed chain is a real symmetric (float64)
    matrix. With include_ports the self-energies sigmaL and sigmaR are added
    to the diagonal at the two port sites, and the matrix is complex (and
    non-Hermitian for lossy ports).
    """
    roles = site_roles(params.p)
    d, e = _waveguide_tridiagonal(params.p, params.V, params.t1, params.t2, params.VM)
    h = np.zeros((roles.dim, roles.dim), dtype=complex if include_ports else float)
    sites = np.arange(roles.portR)
    h[sites, sites] = d
    h[sites[:-1], sites[1:]] = e
    h[sites[1:], sites[:-1]] = e
    q, m = roles.Q - 1, roles.M - 1
    h[q, q] = params.VQ
    h[m, q] = h[q, m] = -params.tQ

    if include_ports:
        h[roles.portL - 1, roles.portL - 1] += complex(params.sigmaL)
        h[roles.portR - 1, roles.portR - 1] += complex(params.sigmaR)

    return LabeledHamiltonian(matrix=h, roles=roles)


def read_text(path) -> str:
    """The contents of a UTF-8 data file.

    A file that cannot be read, or a byte that is not UTF-8, raises
    DataFormatError naming the file (and the line of that byte).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} is not UTF-8",
                              line=data.count(b"\n", 0, exc.start) + 1) from None


def read_csv(path):
    """The first record of a UTF-8 CSV file (None if it is empty) and the
    later non-empty records as (line number, fields) pairs."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader, None)
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}", line=reader.line_num) from None
    return header, rows


def _finite_fields(path, line: int, row: list, n: int, what: str) -> list:
    """The first n fields of a CSV row as finite floats; DataFormatError
    naming the file and line if there are fewer or one is not a finite number."""
    try:
        values = [float(x) for x in row[:n]]
    except ValueError:
        values = []
    if len(values) < n:
        raise DataFormatError(f"{path}: malformed {what} row {row}", line=line)
    if not all(map(math.isfinite, values)):
        raise DataFormatError(f"{path}: non-finite value in {what} row {row}", line=line)
    return values


def _write_json(path, payload: dict) -> None:
    """payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
