"""Simulation and analysis toolkit for qubit-controlled directional edge states
in a Rice-Mele photonic waveguide."""

import os
import sys

# Every matrix here is small (the fig1 chain is 44 x 44, the fit stacks
# 20 x 20), below OpenBLAS's threading thresholds, so a second BLAS thread
# only spins and burns a core. Pin one thread before the submodules load
# numpy; a caller's OPENBLAS_NUM_THREADS wins, and a process that imported
# numpy first keeps the threads it already has. The run manifest records
# the setting OpenBLAS read: None when numpy came first without one.
_OPENBLAS_THREADS_READ = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if "numpy" not in sys.modules:
    _OPENBLAS_THREADS_READ = os.environ["OPENBLAS_NUM_THREADS"]

import importlib

__version__ = "0.1.0"

# The public names by submodule. A name loads its submodule on first use, so
# a command loads (and, without a bytecode cache, compiles) only what it runs.
_EXPORTS = {
    "errors": "DataFormatError NotFoundError NumericalError ParameterError RiceMeleError",
    "model": """RAD_PER_NS_PER_MHZ LabeledHamiltonian ModelParams Peak PeakSet SiteRoles
        build_hamiltonian site_roles""",
    "spectral": """BandGap ModeSet QubitSweep band_gap eigenmodes far_detuned_gap
        in_gap_indices sweep_qubit_energy""",
    "edge_states": "DirectionalityReport bidirectional_point directionality working_points",
    "scattering": """SMatrixPoint SpectrumMap extract_peaks resonance_grid s_matrix
        transmission_map""",
    "dynamics": """BlochParams TimeTrace bloch_rabi_trace decay_time dressed_decay_time
        dressed_in_gap_mode evolve_single_excitation infer_port_self_energy
        integrated_port_emission""",
    "fitting": """FitObservations FitResult bootstrap_fit fit_hamiltonian
        model_anticrossing_gap model_peak_frequencies""",
    "sigproc": "ChiEstimate SignalAmplitudes bootstrap_amplitude chi_estimate",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
