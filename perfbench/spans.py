"""Per-layer metrics from the spans traced_cli.py writes, one file per command.

A `<layer>.<function>_s` metric is the time spent inside that function,
counting only the outermost of nested calls to it; `_calls` counts its
calls. `<layer>.self_s` is the time inside the layer's spans that none of
their child spans cover. All metrics are totals over the commands of one
pass.
"""

from __future__ import annotations

import json
from pathlib import Path

LAYERS = ("model", "spectral", "edge_states", "scattering", "dynamics", "fitting", "sigproc", "cli")

TIMES = (
    "model.build_hamiltonian", "spectral.eigenmodes", "spectral.sweep_qubit_energy",
    "spectral.write_sweep_csv", "edge_states.working_points", "scattering.transmission_map",
    "scattering.resonance_grid", "scattering.write_map_csv", "dynamics.evolve_single_excitation",
    "dynamics.bloch_rabi_trace", "dynamics.write_trace_csv", "dynamics.read_trace_csv",
    "sigproc.bootstrap_amplitude", "fitting.bootstrap_fit", "fitting.fit_hamiltonian",
    "fitting.extract_peaks",
)
CALLS = (
    "model.build_hamiltonian", "spectral.eigenmodes", "spectral.far_detuned_gap",
    "edge_states.directionality", "scattering.s_matrix", "dynamics.dressed_in_gap_mode",
    "sigproc.demodulate_amplitude",
)
IMPORT_SPAN = "cli.import"
COMMAND_SPAN = "cli.main"

NAMES = (
    [f"{n}_calls" for n in CALLS] + [f"{n}_s" for n in TIMES]
    + ["cli.import_s", "cli.command_s", "cli.output_mib"]
    + [f"{layer}.self_s" for layer in LAYERS] + ["trace.pass_s"]
)


def unit(name: str) -> str:
    if name.endswith("_calls"):
        return "count"
    return "MiB" if name.endswith("_mib") else "s"


def command_metrics(names: list, spans: list) -> dict:
    """Metrics of one command's spans ([name id, parent, start, end] rows)."""
    out = {n: 0.0 for n in NAMES if n != "cli.output_mib" and n != "trace.pass_s"}
    child_time = [0.0] * len(spans)
    for name_id, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    open_names = []   # names of the ancestors of each span, for outermost-only totals
    for k, (name_id, parent, start, end) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        ancestors = open_names[parent] if parent >= 0 else frozenset()
        open_names.append(ancestors | {name})
        if name == IMPORT_SPAN:
            out["cli.import_s"] += duration
            continue
        if name == COMMAND_SPAN:
            out["cli.command_s"] += duration
        if f"{name}_calls" in out:
            out[f"{name}_calls"] += 1
        if f"{name}_s" in out and name not in ancestors:
            out[f"{name}_s"] += duration
        out[f"{name.split('.')[0]}.self_s"] += duration - child_time[k]
    return out


def per_layer(span_files: list, passdir: Path) -> dict:
    """Per-layer metrics of one pass: its span files and the outputs it wrote."""
    total = {n: 0.0 for n in NAMES if n != "trace.pass_s"}
    for path in span_files:
        data = json.loads(Path(path).read_text())
        for k, v in command_metrics(data["names"], data["spans"]).items():
            total[k] += v
    written = sum(f.stat().st_size for f in passdir.rglob("*")
                  if f.is_file() and f.parent != passdir)
    total["cli.output_mib"] = written / 2**20
    return total
