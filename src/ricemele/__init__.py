"""Simulation and analysis toolkit for qubit-controlled directional edge states
in a Rice-Mele photonic waveguide."""

__version__ = "0.1.0"

from .errors import (
    DataFormatError,
    InsufficientModesError,
    NotFoundError,
    NumericalError,
    ParameterError,
    RiceMeleError,
)
from .model import (
    RAD_PER_NS_PER_MHZ,
    LabeledHamiltonian,
    ModelParams,
    SiteRoles,
    build_hamiltonian,
    params_from_config,
    params_to_config,
    site_roles,
)
from .spectral import (
    BandGap,
    ModeSet,
    QubitSweep,
    band_gap,
    eigenmodes,
    far_detuned_gap,
    in_gap_indices,
    qubit_coupling_flags,
    sweep_qubit_energy,
    three_site_surrogate,
)
from .edge_states import (
    DirectionalityReport,
    bidirectional_point,
    directionality,
    working_points,
)
from .scattering import (
    SMatrixPoint,
    SpectrumMap,
    greens_function,
    ldos,
    resonance_grid,
    s_matrix,
    transmission_map,
)
from .dynamics import (
    BlochParams,
    TimeTrace,
    bloch_rabi_trace,
    decay_time,
    dressed_decay_time,
    dressed_in_gap_mode,
    evolve_single_excitation,
    infer_port_self_energy,
    integrated_port_emission,
    ramsey_trace,
)
from .fitting import (
    FitObservations,
    FitResult,
    Peak,
    PeakSet,
    bootstrap_fit,
    extract_peaks,
    fit_hamiltonian,
    median_background_subtract,
    model_anticrossing_gap,
    model_peak_frequencies,
)
from .sigproc import (
    ChiEstimate,
    SignalAmplitudes,
    bootstrap_amplitude,
    chi_estimate,
    demodulate_amplitude,
    display_filter,
)
