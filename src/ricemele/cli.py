"""Command-line front end: figure-by-figure recipes with reproducible outputs.

Subcommands: spectrum (eigenvalue sweep + edge-state populations), scatter
(transmission/LDOS maps + peak report), emit (lattice emission and Bloch
traces), fit (peak/gap CSV -> parameter fit with bootstrap), chi
(directionality estimate). Every run writes a manifest.json that fully
reconstructs it. Exit codes: 0 success, 2 usage, 3 data, 4 numerical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DataFormatError,
    InsufficientModesError,
    NotFoundError,
    NumericalError,
    ParameterError,
    RiceMeleError,
)
from .model import ModelParams, build_hamiltonian, parse_config
from .spectral import far_detuned_gap, sweep_qubit_energy, write_sweep_csv
from .edge_states import directionality, edge_mode, working_points
from .scattering import (
    MAP_KINDS,
    resonance_grid,
    transmission_map,
    write_map_csv,
    write_map_header_json,
)
from .dynamics import (
    BlochParams,
    bloch_rabi_trace,
    decay_time,
    dressed_in_gap_mode,
    evolve_single_excitation,
    integrated_port_emission,
    write_trace_csv,
    read_trace_csv,
)
from .fitting import FitObservations, Peak, PeakSet, bootstrap_fit, extract_peaks
from .sigproc import SignalAmplitudes, bootstrap_amplitude, chi_estimate

PRESETS = {
    # ideal chain: two in-gap states, unidirectional at VQ = -V and +V
    "fig1": {
        "p": "10", "V": "37.5", "t1": "120", "t2": "150", "tQ": "62.5",
        "VQ": "-37.5", "VM": "0",
        "VQ_start": "-150", "VQ_stop": "150", "VQ_points": "121",
    },
    # fitted device: 19-peak transmission spectrum and the gap anti-crossing
    "fig3": {
        "p": "4", "V": "40", "t1": "230", "t2": "280", "tQ": "130",
        "VQ": "17.6", "VM": "590",
        "sigmaL_im": "-18", "sigmaR_im": "-18",
        "E_points": "2001", "map_kind": "S_RL", "peak_prominence": "0.001",
        "VQ_start": "-60", "VQ_stop": "95", "VQ_points": "63",
    },
    # fitted device: full S-matrix zoom around the in-gap anti-crossing
    "fig4": {
        "p": "4", "V": "40", "t1": "230", "t2": "280", "tQ": "130",
        "VQ": "17.6", "VM": "590",
        "sigmaL_im": "-18", "sigmaR_im": "-18",
        "E_start": "-70", "E_stop": "90", "E_points": "321",
        "map_kind": "all",
        "VQ_start": "-60", "VQ_stop": "95", "VQ_points": "63",
    },
    # qubit emission at the leftward working point
    "fig5": {
        "p": "4", "V": "40", "t1": "230", "t2": "280", "tQ": "130",
        "VQ": "-40", "VM": "590",
        "sigmaL_im": "-18", "sigmaR_im": "-18",
        "t_stop": "1500", "t_points": "3001",
        "rabi_freq": "25", "drive_ns": "600",
    },
    # measured amplitude quadruple for the directionality estimate
    "appc": {
        "s_lL": "108.2", "s_lR": "0.3", "s_rL": "0.7", "s_rR": "54.5",
        "std_lL": "0.3", "std_lR": "0.3", "std_rL": "0.3", "std_rR": "0.3",
    },
}


class RunConfig:
    """Merged preset/config-file key-value store with typed accessors."""

    def __init__(self, raw: dict, seed: int, threads: int):
        self.raw = dict(raw)
        self.seed = seed
        self.threads = threads

    def number(self, key: str, default=None) -> float:
        if key not in self.raw:
            if default is None:
                raise ParameterError(f"config key {key!r} is required")
            return default
        try:
            value = float(self.raw[key])
        except ValueError:
            raise DataFormatError(f"config key {key!r} is not a number: {self.raw[key]!r}") from None
        if not math.isfinite(value):
            raise ParameterError(f"config key {key!r} must be finite, got {self.raw[key]!r}")
        return value

    def integer(self, key: str, default=None) -> int:
        value = self.number(key, default)
        if int(value) != value:
            raise DataFormatError(f"config key {key!r} must be an integer, got {value}")
        return int(value)

    def text(self, key: str, default=None) -> str:
        if key not in self.raw:
            if default is None:
                raise ParameterError(f"config key {key!r} is required")
            return default
        return self.raw[key]

    def model(self) -> ModelParams:
        """Model parameters; VM, the port self-energies and f0 default to 0."""
        return ModelParams(
            p=self.integer("p"), V=self.number("V"), t1=self.number("t1"),
            t2=self.number("t2"), tQ=self.number("tQ"), VQ=self.number("VQ"),
            VM=self.number("VM", 0.0),
            sigmaL=complex(self.number("sigmaL_re", 0.0), self.number("sigmaL_im", 0.0)),
            sigmaR=complex(self.number("sigmaR_re", 0.0), self.number("sigmaR_im", 0.0)),
            f0=self.number("f0", 0.0),
        )

    def grid(self, prefix: str) -> np.ndarray:
        start = self.number(f"{prefix}_start")
        stop = self.number(f"{prefix}_stop")
        points = self.integer(f"{prefix}_points")
        if points < 1:
            raise ParameterError(f"{prefix} grid must have at least 1 point, got {points}")
        return np.linspace(start, stop, points)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir: Path, command: str, cfg: RunConfig, outputs: list) -> Path:
    manifest = {
        "command": command,
        "config": dict(sorted(cfg.raw.items())),
        "seed": cfg.seed,
        "threads": cfg.threads,
        "outputs": sorted(str(Path(p).name) for p in outputs),
        "versions": {
            "ricemele": __version__,
            "numpy": np.__version__,
        },
    }
    path = outdir / "manifest.json"
    _write_json(path, manifest)
    return path


def cmd_spectrum(cfg: RunConfig, outdir: Path) -> list:
    """Eigenvalue sweep CSV, edge-state population CSV, directionality JSON."""
    params = cfg.model()
    vq_grid = cfg.grid("VQ")
    sweep = sweep_qubit_energy(params, vq_grid)
    sweep_path = outdir / "sweep.csv"
    write_sweep_csv(sweep_path, sweep)

    gap = sweep.gap
    vq_left, vq_right = working_points(params, gap=gap)
    reports = {}
    pop_path = outdir / "edge_populations.csv"
    with open(pop_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "VQ_MHz", "mode_index", "site", "probability"])
        for direction, vq in (("left", vq_left), ("right", vq_right)):
            found = edge_mode(params.with_(VQ=vq), gap, direction)
            if found is None:
                raise NotFoundError(f"no in-gap mode at the {direction} working point")
            modes, best, rep = found
            reports[direction] = {"VQ_MHz": vq, "mode_index": best, **rep.as_dict()}
            prob = np.abs(modes.eigenvectors[:, best]) ** 2
            for site in range(1, modes.roles.dim + 1):
                writer.writerow(
                    [direction, f"{vq:.10g}", best, site, f"{prob[site - 1]:.10g}"]
                )
    dir_path = outdir / "directionality.json"
    _write_json(dir_path, {
        "band_gap_MHz": {"lower": gap.lower, "upper": gap.upper},
        "working_points_MHz": {"left": vq_left, "right": vq_right},
        "reports": reports,
    })
    return [sweep_path, pop_path, dir_path]


def cmd_scatter(cfg: RunConfig, outdir: Path) -> list:
    """Transmission/LDOS maps plus a far-detuned peak report."""
    params = cfg.model()
    vq_grid = cfg.grid("VQ")
    far = params.far_detuned()
    far_grid = resonance_grid(far, cfg.integer("E_points", 2001))
    if "E_start" in cfg.raw and "E_stop" in cfg.raw:
        e_grid = cfg.grid("E")
    else:
        e_grid = far_grid
    kind = cfg.text("map_kind", "S_RL")
    kinds = list(MAP_KINDS[:4]) if kind == "all" else [kind]

    outputs = []
    for k in kinds:
        smap = transmission_map(params, e_grid, vq_grid, kind=k)
        csv_path = outdir / f"map_{k}.csv"
        json_path = outdir / f"map_{k}.json"
        write_map_csv(csv_path, smap)
        write_map_header_json(json_path, smap, csv_path.name)
        outputs += [csv_path, json_path]

    # peak report on a dedicated far-detuned slice
    smap = transmission_map(far, far_grid, [far.VQ], kind="S_RL")
    peaks = extract_peaks(
        smap.E_grid, smap.values[:, 0], cfg.number("peak_prominence", 1e-3),
        flux_or_vq=far.VQ, source="far-detuned model slice",
    )
    peaks_path = outdir / "far_detuned_peaks.csv"
    with open(peaks_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flux_or_VQ", "frequency_MHz", "amplitude"])
        for pk in peaks.peaks:
            writer.writerow([f"{pk.flux_or_vq:.10g}", f"{pk.frequency:.10g}", f"{pk.amplitude:.10g}"])
    outputs.append(peaks_path)
    return outputs


def cmd_emit(cfg: RunConfig, outdir: Path) -> list:
    """Single-excitation lattice emission plus a Bloch-model Rabi trace."""
    params = cfg.model()
    t_grid = np.linspace(0.0, cfg.number("t_stop", 1500.0), cfg.integer("t_points", 3001))

    H = build_hamiltonian(params, include_ports=True)
    psi0 = np.zeros(H.roles.dim, dtype=complex)
    psi0[H.roles.Q - 1] = 1.0
    lattice = evolve_single_excitation(H, psi0, t_grid)
    lattice_path = outdir / "emission.csv"
    write_trace_csv(lattice_path, lattice)
    wl, wr = integrated_port_emission(lattice)

    energy, mode = dressed_in_gap_mode(params, far_detuned_gap(params))
    t1 = decay_time(energy)
    rep = directionality(mode, H.roles, "left")
    w_left = cfg.number("w_left", rep.pop_left)
    w_right = cfg.number("w_right", rep.pop_right)
    total = w_left + w_right
    if total > 1.0:
        w_left, w_right = w_left / total, w_right / total
    bp = BlochParams(
        rabi_freq=cfg.number("rabi_freq", 25.0),
        T1=t1 if np.isfinite(t1) else 1e9,
        T2=cfg.number("T2_ns", 2.0 * t1 if np.isfinite(t1) else 2e9),
        detuning=cfg.number("detuning", 0.0),
        w_left=w_left,
        w_right=w_right,
    )
    bloch = bloch_rabi_trace(bp, t_grid, drive_on_until=cfg.number("drive_ns", 600.0))
    bloch_path = outdir / "bloch.csv"
    write_trace_csv(bloch_path, bloch)

    summary_path = outdir / "emission_summary.json"
    ratio = wl / wr if wr > 0 else None
    _write_json(summary_path, {
        "integrated_port_L": wl,
        "integrated_port_R": wr,
        "L_over_R": ratio,
        "L_over_R_dB": None if ratio in (None, 0.0) else 10.0 * np.log10(ratio),
        "dressed_T1_ns": None if np.isinf(t1) else t1,
        "bloch_w_left": w_left,
        "bloch_w_right": w_right,
    })
    return [lattice_path, bloch_path, summary_path]


def _read_peaks_csv(path) -> PeakSet:
    peaks = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["flux_or_VQ", "frequency_MHz", "amplitude"]:
            raise DataFormatError(f"{path}: expected header flux_or_VQ,frequency_MHz,amplitude", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                peaks.append(Peak(float(row[0]), float(row[1]), float(row[2])))
            except (ValueError, IndexError):
                raise DataFormatError(f"{path}: malformed peak row {row}", line=lineno) from None
    return PeakSet(peaks=peaks, source=str(path))


def _read_gaps_csv(path) -> list:
    gaps = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["VQ_MHz", "gap_MHz"]:
            raise DataFormatError(f"{path}: expected header VQ_MHz,gap_MHz", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                gaps.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise DataFormatError(f"{path}: malformed gap row {row}", line=lineno) from None
    return gaps


def cmd_fit(cfg: RunConfig, outdir: Path, peaks_path, gaps_path) -> list:
    """Two-stage fit with bootstrap intervals from observation CSVs."""
    if peaks_path is None:
        raise ParameterError("fit requires --peaks CSV")
    peaks = _read_peaks_csv(peaks_path)
    gaps = _read_gaps_csv(gaps_path) if gaps_path else []
    initial = cfg.model()
    fixed = tuple(s for s in cfg.text("fixed", "").split(",") if s)
    if not gaps and "tQ" not in fixed:
        fixed = fixed + ("tQ",)
    n = cfg.integer("n_bootstrap", 1000)
    result = bootstrap_fit(
        FitObservations(peaks=peaks, gaps=gaps), initial,
        n=n, fixed=fixed, seed=cfg.seed, threads=cfg.threads,
    )
    fit_path = outdir / "fit.json"
    _write_json(fit_path, {
        "parameters": result.parameter_table(),
        "residual_rms_MHz": result.residual_rms,
        "n_bootstrap": result.n_bootstrap,
        "converged": result.converged,
        "fixed": sorted(fixed),
    })
    return [fit_path]


def cmd_chi(cfg: RunConfig, outdir: Path, trace_paths) -> list:
    """Directionality estimate from amplitudes or from four port traces."""
    stds = {}
    if trace_paths:
        if len(trace_paths) != 4:
            raise ParameterError("--traces needs exactly 4 files: lL lR rL rR")
        f_rabi = cfg.number("rabi_freq")
        n = cfg.integer("n_bootstrap", 1000)
        values = {}
        for label, path in zip(("lL", "lR", "rL", "rR"), trace_paths):
            trace = read_trace_csv(path)
            name = cfg.text("trace_channel", "port_L" if label.endswith("L") else "port_R")
            mean, std = bootstrap_amplitude(
                trace.t_grid, trace.channel(name), f_rabi, n=n, seed=cfg.seed,
            )
            values[f"s_{label}"] = mean
            stds[f"std_{label}"] = std
        amps = SignalAmplitudes(
            s_lL=values["s_lL"], s_lR=values["s_lR"],
            s_rL=values["s_rL"], s_rR=values["s_rR"],
            **stds,
        )
    else:
        amps = SignalAmplitudes(
            s_lL=cfg.number("s_lL"), s_lR=cfg.number("s_lR"),
            s_rL=cfg.number("s_rL"), s_rR=cfg.number("s_rR"),
            std_lL=cfg.number("std_lL", 0.0), std_lR=cfg.number("std_lR", 0.0),
            std_rL=cfg.number("std_rL", 0.0), std_rR=cfg.number("std_rR", 0.0),
        )
    est = chi_estimate(amps)
    chi_path = outdir / "chi.json"
    _write_json(chi_path, {
        **est.as_dict(),
        "s_values": {"s_lL": amps.s_lL, "s_lR": amps.s_lR, "s_rL": amps.s_rL, "s_rR": amps.s_rR},
        "s_stds": {"s_lL": amps.std_lL, "s_lR": amps.std_lR, "s_rL": amps.std_rL, "s_rR": amps.std_rR},
    })
    return [chi_path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricemele",
        description="Directional edge states in a Rice-Mele waveguide: simulation recipes.",
    )
    parser.add_argument("command", choices=("spectrum", "scatter", "emit", "fit", "chi"))
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter bundle")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--peaks", type=Path, help="fit: peak observations CSV")
    parser.add_argument("--gaps", type=Path, help="fit: anti-crossing gap CSV")
    parser.add_argument("--traces", type=Path, nargs="*", help="chi: four trace CSVs (lL lR rL rR)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    raw = {}
    if args.preset:
        raw.update(PRESETS[args.preset])
    if args.config:
        try:
            raw.update(parse_config(args.config.read_text()))
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 3
    cfg = RunConfig(raw, seed=args.seed, threads=max(args.threads, 1))

    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "spectrum":
            outputs = cmd_spectrum(cfg, outdir)
        elif args.command == "scatter":
            outputs = cmd_scatter(cfg, outdir)
        elif args.command == "emit":
            outputs = cmd_emit(cfg, outdir)
        elif args.command == "fit":
            outputs = cmd_fit(cfg, outdir, args.peaks, args.gaps)
        else:
            outputs = cmd_chi(cfg, outdir, args.traces)
        outputs.append(_write_manifest(outdir, args.command, cfg, outputs))
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, NotFoundError, InsufficientModesError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except RiceMeleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
