"""The three benchmark workloads: their inputs, CLI commands and output checks.

A workload makes its inputs from the seed once per run, names the ricemele
commands of one pass (each runs in its own process, in this order) and
checks the outputs of one pass. Checks are grouped by command, so that the
outputs of a command that failed are not checked.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import checks as ck
import reference as ref


class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> None:
        """Write the generated inputs into workdir."""

    def commands(self, passdir: Path) -> list:
        """(label, ricemele arguments) for each command of one pass."""
        raise NotImplementedError

    def check(self, label: str, outdir: Path) -> None:
        """Check the outputs of one command; raise CheckFailed if wrong."""
        raise NotImplementedError


class Maps(Workload):
    name = "maps"
    fig4_kinds = ("S_LL", "S_LR", "S_RL", "S_RR")
    n_spot = 24

    def commands(self, passdir):
        return [(preset, ["scatter", "--preset", preset, "--seed", str(self.seed),
                          "--out", str(passdir / preset)]) for preset in ("fig3", "fig4")]

    def _spot_check(self, kind, e_grid, vq_grid, values):
        i = self.rng.integers(0, e_grid.size, self.n_spot)
        j = self.rng.integers(0, vq_grid.size, self.n_spot)
        ck.check_map_points(kind, e_grid[i], vq_grid[j], values[i, j], ref.FITTED)

    def check(self, label, outdir):
        if label == "fig3":
            e_grid, vq_grid, values = ck.read_map(outdir / "map_S_RL.csv")
            ck.require(vq_grid.size == 63 and e_grid.size > 1000,
                       f"fig3 map grid is {e_grid.size} x {vq_grid.size}")
            self._spot_check("S_RL", e_grid, vq_grid, values)
            peaks = ck.read_columns(outdir / "far_detuned_peaks.csv", ["flux_or_VQ", "frequency_MHz"])
            vq = float(peaks["flux_or_VQ"][0]) if peaks["flux_or_VQ"].size else 0.0
            ck.require(vq > 5 * max(ref.FITTED["t1"], ref.FITTED["t2"]),
                       f"peak slice at VQ = {vq} is not far-detuned")
            ck.check_far_detuned_peaks(peaks["frequency_MHz"], vq, ref.FITTED)
        else:
            maps = {k: ck.read_map(outdir / f"map_{k}.csv") for k in self.fig4_kinds}
            for kind, (e_grid, vq_grid, values) in maps.items():
                ck.require((e_grid.size, vq_grid.size) == (321, 63),
                           f"fig4 {kind} grid is {e_grid.size} x {vq_grid.size}")
                self._spot_check(kind, e_grid, vq_grid, values)
            s = {k: v[2] for k, v in maps.items()}
            ck.check_reciprocity_and_flux(s["S_LL"], s["S_LR"], s["S_RL"])
            ck.check_reciprocity_and_flux(s["S_RR"], s["S_RL"], s["S_LR"])


class EdgeEmission(Workload):
    name = "edge-emission"
    labels = ("lL", "lR", "rL", "rR")
    rabi_mhz = 25.0
    n_samples = 4096
    dt_ns = 1.0
    noise = 0.01
    n_bootstrap = 200
    drive_ns = 600.0
    fig5_vq = -40.0

    def prepare(self):
        """Four port traces A sin(2 pi f_R t) + complex white noise.

        The amplitudes follow the measured pattern: a strong signal on the
        port each edge state points to and a weak one on the other port.
        """
        r = self.rng
        self.amplitudes = {
            "lL": r.uniform(0.8, 1.2), "lR": r.uniform(0.02, 0.05),
            "rL": r.uniform(0.02, 0.05), "rR": r.uniform(0.4, 0.6),
        }
        t = self.dt_ns * np.arange(self.n_samples)
        carrier = np.sin(ref.RAD_PER_NS_PER_MHZ * self.rabi_mhz * t)
        self.traces = []
        for label in self.labels:
            channel = "port_L" if label.endswith("L") else "port_R"
            x = self.amplitudes[label] * carrier + self.noise * (
                r.standard_normal(t.size) + 1j * r.standard_normal(t.size))
            path = self.workdir / f"trace_{label}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t_ns", f"{channel}_re", f"{channel}_im"])
                for ti, xi in zip(t, x):
                    writer.writerow([f"{ti:.10g}", f"{xi.real:.10g}", f"{xi.imag:.10g}"])
            self.traces.append(str(path))
        self.chi_config = self.workdir / "chi.cfg"
        self.chi_config.write_text(f"rabi_freq = {self.rabi_mhz}\nn_bootstrap = {self.n_bootstrap}\n")
        # sweep rows checked against the reference spectrum
        self.sweep_vqs = np.sort(r.choice(np.linspace(-150.0, 150.0, 121), 3, replace=False))

    def commands(self, passdir):
        seed = ["--seed", str(self.seed)]
        return [
            ("spectrum", ["spectrum", "--preset", "fig1", *seed, "--out", str(passdir / "spectrum")]),
            ("emit", ["emit", "--preset", "fig5", *seed, "--out", str(passdir / "emit")]),
            ("chi", ["chi", "--config", str(self.chi_config), "--traces", *self.traces,
                     *seed, "--out", str(passdir / "chi")]),
        ]

    def noise_floor(self) -> float:
        """Six standard errors of one demodulated amplitude from the trace noise."""
        return 6.0 * self.noise / math.sqrt(self.n_samples)

    def check(self, label, outdir):
        getattr(self, f"_check_{label}")(outdir)

    def _check_spectrum(self, outdir):
        sweep = ck.read_columns(outdir / "sweep.csv", ["VQ_MHz", "re_E_MHz"])
        for vq in self.sweep_vqs:
            rows = np.isclose(sweep["VQ_MHz"], vq, rtol=0.0, atol=1e-6)
            ck.check_sweep_levels(vq, sweep["re_E_MHz"][rows], ref.FIG1)
        report = ck.read_json(outdir / "directionality.json")
        points = report["working_points_MHz"]
        ck.check_working_points(points["left"], points["right"], ref.FIG1["V"])
        with open(outdir / "edge_populations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for direction in ("left", "right"):
            mine = [r for r in rows if r["direction"] == direction]
            ck.require(mine, f"no {direction} edge-state populations")
            ck.check_edge_state(direction, float(mine[0]["VQ_MHz"]), int(mine[0]["mode_index"]),
                                [float(r["probability"]) for r in mine], ref.FIG1)

    def _check_emit(self, outdir):
        summary = ck.read_json(outdir / "emission_summary.json")
        last = ck.read_last_row(outdir / "emission.csv")
        norm = sum(v * v for k, v in last.items() if k.startswith("site_"))
        ck.check_emission_balance(summary["integrated_port_L"], summary["integrated_port_R"], norm)
        t1 = summary["dressed_T1_ns"]
        ck.require(t1 is not None, "dressed T1 is missing")
        ck.check_dressed_t1(t1, ref.FITTED, self.fig5_vq)
        bloch = ck.read_columns(outdir / "bloch.csv", ["t_ns", "sigma_z_re"])
        ck.check_bloch_decay(bloch["t_ns"], bloch["sigma_z_re"], self.drive_ns, t1)

    def _check_chi(self, outdir):
        result = ck.read_json(outdir / "chi.json")
        got = {label: result["s_values"][f"s_{label}"] for label in self.labels}
        ck.check_demodulation(got, result, self.amplitudes, self.noise_floor())


class Fit(Workload):
    name = "fit"
    truth = dict(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VM=590.0, f0=4600.0)
    guess = dict(p=4, V=30.0, t1=200.0, t2=300.0, tQ=100.0, VM=550.0, f0=4550.0)
    gap_vqs = (-20.0, 0.0, 17.6, 35.0, 55.0)
    checked = ("t1", "t2", "V", "VM", "tQ")
    jitter = 2.0
    n_bootstrap = 250

    def prepare(self):
        tr, r = self.truth, self.rng
        levels = ref.waveguide_levels(tr["p"], tr["V"], tr["t1"], tr["t2"], tr["VM"]) + tr["f0"]
        self.peaks = self.workdir / "peaks.csv"
        with open(self.peaks, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["flux_or_VQ", "frequency_MHz", "amplitude"])
            for f in levels + r.normal(0.0, self.jitter, levels.size):
                writer.writerow(["0", f"{f:.6f}", "1"])
        self.gaps = self.workdir / "gaps.csv"
        with open(self.gaps, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["VQ_MHz", "gap_MHz"])
            for vq in self.gap_vqs:
                g = ref.anticrossing_gap(tr["p"], tr["V"], tr["t1"], tr["t2"], tr["tQ"], vq, tr["VM"])
                writer.writerow([f"{vq}", f"{g + r.normal(0.0, self.jitter):.6f}"])
        self.reference = ref.fit_device(
            ck.read_columns(self.peaks, ["frequency_MHz"])["frequency_MHz"],
            list(zip(*ck.read_columns(self.gaps, ["VQ_MHz", "gap_MHz"]).values())),
            self.guess)
        self.config = self.workdir / "fit.cfg"
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in self.guess.items())
                               + f"VQ = 0\nn_bootstrap = {self.n_bootstrap}\n")

    def commands(self, passdir):
        return [("fit", ["fit", "--config", str(self.config), "--peaks", str(self.peaks),
                         "--gaps", str(self.gaps), "--seed", str(self.seed),
                         "--out", str(passdir / "fit")])]

    def check(self, label, outdir):
        table = ck.read_json(outdir / "fit.json")["parameters"]
        ck.check_fit(table, {k: self.truth[k] for k in self.checked}, self.reference)


WORKLOADS = {w.name: w for w in (Maps, EdgeEmission, Fit)}
