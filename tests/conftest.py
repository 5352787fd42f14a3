import numpy as np
import pytest

from ricemele import ModelParams


# the band-gap heuristic that model.gap_edges replaced, kept as its oracle
WEIGHT_EXCLUDE = 0.5
LOCALIZED_PR_FRACTION = 0.5
DEGENERATE_SPACING_FACTOR = 2.0


def heuristic_gap(energies, prob, dominant_weight, reach):
    """(lower, upper, in-gap indices, degenerate) by the old heuristic, or
    None where it finds no gap.

    prob holds |psi|^2 with one mode per column. Modes whose dominant_weight
    (largest weight on M or Q) exceeds WEIGHT_EXCLUDE, and modes whose
    participation ratio falls below LOCALIZED_PR_FRACTION of the median, are
    excluded; among the remaining band modes the gap is the widest interval
    between consecutive energies whose midpoint lies within +-reach of the
    band centre, degenerate when narrower than DEGENERATE_SPACING_FACTOR
    median spacings.
    """
    energies = np.asarray(energies)
    pr = 1.0 / np.sum(prob**2, axis=0)
    localized = pr < LOCALIZED_PR_FRACTION * np.median(pr)
    band = np.sort(energies[~((dominant_weight > WEIGHT_EXCLUDE) | localized)])
    if len(band) < 4:
        return None
    spacings = np.diff(band)
    midpoints = 0.5 * (band[:-1] + band[1:])
    eligible = np.abs(midpoints - band.mean()) <= reach
    if not eligible.any():
        return None
    widest = np.flatnonzero(eligible)[np.argmax(spacings[eligible])]
    lower, upper = float(band[widest]), float(band[widest + 1])
    degenerate = (upper - lower) < DEGENERATE_SPACING_FACTOR * float(np.median(spacings))
    inside = np.flatnonzero((energies > lower) & (energies < upper))
    return lower, upper, [int(i) for i in inside], degenerate


def heuristic_mode_gap(modes, params):
    """heuristic_gap of a spectral.ModeSet, Q- and M-dominated modes excluded."""
    return heuristic_gap(modes.eigenvalues.real, np.abs(modes.eigenvectors) ** 2,
                         np.maximum(modes.qubit_weight, modes.central_weight),
                         params.t1 + params.t2)


def heuristic_block_gap(params):
    """(lower, upper) of heuristic_gap on the bare waveguide block, M-dominated
    modes excluded, or None."""
    from ricemele.fitting import _theta, _waveguide_patterns, _waveguide_spectra
    from ricemele.model import site_roles

    lam, _, z = _waveguide_spectra(_waveguide_patterns(params.p), _theta(params))
    evals, prob = lam[0], z[0] ** 2
    gap = heuristic_gap(evals, prob, prob[site_roles(params.p).M - 1], params.t1 + params.t2)
    return None if gap is None else gap[:2]


def two_solve_in_gap_mode(params, gap):
    """The dressed in-gap mode by the two-solve path that emit ran before one
    eigendecomposition served both its lattice trace and this mode: eigenmodes
    of a rebuilt port-dressed H, then the in-gap mode of largest qubit weight.
    (eigenvalue, unit eigenvector), or None where no mode is in the gap."""
    from ricemele import build_hamiltonian, eigenmodes, in_gap_indices

    modes = eigenmodes(build_hamiltonian(params, include_ports=True))
    inside = in_gap_indices(modes, gap)
    if not inside:
        return None
    k = max(inside, key=lambda i: modes.qubit_weight[i])
    return modes.eigenvalues[k], modes.eigenvectors[:, k]


def dense_edge_mode(params, gap, direction):
    """The working-point state by the route spectrum took before
    edge_states.working_point_state built it in closed form, kept as its
    oracle: a dense eigh of the closed chain, then the in-gap mode with the
    largest chi toward direction, the first on ties. (modes, index, report),
    or None where no mode lies inside the gap."""
    from ricemele import build_hamiltonian, directionality, eigenmodes, in_gap_indices

    modes = eigenmodes(build_hamiltonian(params))
    best = None
    for k in in_gap_indices(modes, gap):
        rep = directionality(modes.eigenvectors[:, k], modes.roles, direction)
        if best is None or rep.chi > best[2].chi:
            best = (modes, k, rep)
    return best


def _dense_columns(H, E, sites):
    """Columns of G(E) = (E - H)^-1 at the 1-based sites, by one dense solve."""
    from ricemele import NumericalError

    n = H.matrix.shape[0]
    a = E * np.eye(n, dtype=complex) - H.matrix
    rhs = np.zeros((n, len(sites)), dtype=complex)
    rhs[np.subtract(sites, 1), np.arange(len(sites))] = 1.0
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(E*I - H) singular at E = {E} MHz") from exc


def dense_s_matrix(params, E, H=None):
    """s_matrix from one dense solve of the full port-dressed matrix (or of
    H, if given), through the same Fisher-Lee relation: the point oracle of
    the continued fractions. On a state deep in the gap it loses every digit
    (see test_scattering_map._clear_of_levels)."""
    from ricemele import ParameterError, SMatrixPoint, build_hamiltonian

    gamma_l, gamma_r = params.port_rates()
    if gamma_l <= 0 or gamma_r <= 0:
        raise ParameterError("both ports must be lossy: Im(sigma) < 0")
    if H is None:
        H = build_hamiltonian(params, include_ports=True)
    g = _dense_columns(H, E, [H.roles.portL, H.roles.portR])
    il, ir = H.roles.portL - 1, H.roles.portR - 1
    root = np.sqrt(gamma_l * gamma_r)
    return SMatrixPoint(
        E=float(E),
        S_LL=-1.0 + 1j * gamma_l * g[il, 0],
        S_LR=1j * root * g[il, 1],
        S_RL=1j * root * g[ir, 0],
        S_RR=-1.0 + 1j * gamma_r * g[ir, 1],
    )


def ldos(params, E, site, H=None):
    """Local density of states -(1/pi) Im G(E) at a 1-based site, per MHz,
    from one dense solve of the port-dressed chain: the point oracle of
    transmission_map's LDOS."""
    from ricemele import ParameterError, build_hamiltonian

    if H is None:
        H = build_hamiltonian(params, include_ports=True)
    n = H.matrix.shape[0]
    if not 1 <= site <= n:
        raise ParameterError(f"site must be in 1..{n}, got {site}")
    return float(-_dense_columns(H, E, [site])[site - 1, 0].imag / np.pi)


def demodulate_amplitude(t_ns, samples, f_rabi, lpf_cutoff=6.0):
    """Signal amplitude at the Rabi frequency of one trace channel.

    Multiplies by sin(2 pi 1e-3 f_rabi t), low-pass filters with a zero-phase
    windowed sinc at lpf_cutoff MHz, integrates by the trapezoid rule and
    returns the magnitude normalized by the trace duration. A sinusoid of
    amplitude A at f_rabi demodulates to A/2. The whole chain is one dot
    product with the weight vector of sigproc._demodulation_weights, the
    one bootstrap_amplitude uses.
    """
    from ricemele.sigproc import _demodulation_weights, _trace

    t, x = _trace(t_ns, samples)
    w, duration = _demodulation_weights(t, f_rabi, lpf_cutoff)
    return float(abs(x @ w) / duration)


def best_quadrature(samples: np.ndarray) -> np.ndarray:
    """Project complex samples onto the quadrature angle maximizing the signal."""
    z = np.asarray(samples, dtype=complex)
    # the dominant quadrature is the principal axis of the (re, im) cloud
    angle = 0.5 * np.angle(np.sum(z * z))
    return np.real(z * np.exp(-1j * angle))


@pytest.fixture
def fig1_params():
    """Ideal chain used for the edge-state demonstrations (no ports)."""
    return ModelParams(p=10, V=37.5, t1=120.0, t2=150.0, tQ=62.5, VQ=-37.5)


@pytest.fixture
def fitted_params():
    """Device parameters extracted from the measured spectra, lossy ports."""
    return ModelParams(
        p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=-40.0, VM=590.0,
        sigmaL=-18j, sigmaR=-18j,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
