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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, ParameterError

# angular rate (rad/ns) of a 1 MHz linear frequency
RAD_PER_NS_PER_MHZ = 2e-3 * np.pi

CONFIG_KEYS = (
    "p", "V", "t1", "t2", "tQ", "VQ", "VM",
    "sigmaL_re", "sigmaL_im", "sigmaR_re", "sigmaR_im", "f0",
)


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
class LabeledHamiltonian:
    """Dense Hamiltonian (MHz) plus the site labels it was built with."""

    matrix: np.ndarray
    roles: SiteRoles
    hermitian: bool


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


def build_hamiltonian(params: ModelParams, include_ports: bool = False) -> LabeledHamiltonian:
    """Construct the full chain + qubit Hamiltonian.

    The waveguide block is the tridiagonal (d, e) of _waveguide_tridiagonal;
    the qubit site Q carries VQ and the single (M, Q) bond -tQ. With
    include_ports the self-energies sigmaL and sigmaR are added to the
    diagonal at the two port sites, which makes the matrix non-Hermitian for
    lossy ports.
    """
    roles = site_roles(params.p)
    d, e = _waveguide_tridiagonal(params.p, params.V, params.t1, params.t2, params.VM)
    h = np.zeros((roles.dim, roles.dim), dtype=complex)
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

    return LabeledHamiltonian(matrix=h, roles=roles, hermitian=not include_ports)


def _format_decimal(x: float) -> str:
    """Positional decimal notation (no exponent), shortest exact form."""
    return np.format_float_positional(float(x), trim="-")


def params_to_config(params: ModelParams) -> str:
    """Serialize to the flat key-value config format, one 'key = value' per line."""
    sl, sr = complex(params.sigmaL), complex(params.sigmaR)
    values = {
        "p": str(params.p),
        "V": _format_decimal(params.V),
        "t1": _format_decimal(params.t1),
        "t2": _format_decimal(params.t2),
        "tQ": _format_decimal(params.tQ),
        "VQ": _format_decimal(params.VQ),
        "VM": _format_decimal(params.VM),
        "sigmaL_re": _format_decimal(sl.real),
        "sigmaL_im": _format_decimal(sl.imag),
        "sigmaR_re": _format_decimal(sr.real),
        "sigmaR_im": _format_decimal(sr.imag),
        "f0": _format_decimal(params.f0),
    }
    return "".join(f"{k} = {values[k]}\n" for k in CONFIG_KEYS)


def parse_config(text: str) -> dict:
    """Parse flat 'key = value' lines into a string dict. '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise DataFormatError(f"empty key or value in {raw!r}", line=lineno)
        if key in out:
            raise DataFormatError(f"duplicate key {key!r}", line=lineno)
        out[key] = value
    return out


def params_from_config(text: str) -> ModelParams:
    """Deserialize ModelParams from the flat key-value config format."""
    raw = parse_config(text)
    required = ("p", "V", "t1", "t2", "tQ", "VQ", "VM")
    missing = [k for k in required if k not in raw]
    if missing:
        raise DataFormatError(f"missing required keys: {', '.join(missing)}")

    def num(key: str, default: float = 0.0) -> float:
        if key not in raw:
            return default
        try:
            return float(raw[key])
        except ValueError:
            raise DataFormatError(f"key {key!r} is not a number: {raw[key]!r}") from None

    try:
        p = int(raw["p"])
    except ValueError:
        raise DataFormatError(f"key 'p' is not an integer: {raw['p']!r}") from None
    return ModelParams(
        p=p, V=num("V"), t1=num("t1"), t2=num("t2"), tQ=num("tQ"),
        VQ=num("VQ"), VM=num("VM"),
        sigmaL=complex(num("sigmaL_re"), num("sigmaL_im")),
        sigmaR=complex(num("sigmaR_re"), num("sigmaR_im")),
        f0=num("f0"),
    )
