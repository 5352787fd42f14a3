"""Benchmark of the ricemele command line, run cold as a user runs it.

    python3 perfbench/run.py --workload maps|edge-emission|fit|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; ricemele is imported from ./src.
Each workload is a fixed sequence of ricemele commands on inputs made from
the seed. A pass runs the sequence once, every command in a fresh process,
one after another; passes repeat until --seconds have been spent on them.
The first pass's outputs are checked against reference.py; every later pass
must write the same bytes.

With --trace 0 the end-to-end metrics are reported: setup_s (median time
for a fresh interpreter to import ricemele.cli), and per pass pass_s (wall
time of the sequence), cpu_s (user + system time of its processes) and
peak_rss_mib (largest peak resident set of one command), each the median
over the passes. With --trace 1 every command runs under traced_cli.py and
the per-layer metrics from its spans are reported instead; the spans of the
last pass stay in .perfbench/<workload>/last/. A table goes to stderr and
the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans as span_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 60.0
UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def run_process(argv: list, env: dict, log_path: Path) -> dict:
    """Run one process to its end; wall, CPU and peak RSS as the OS reports them."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
    }


def tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and p.suffix != ".log"):
        if f.name.startswith("spans-"):
            continue
        digest.update(str(f.relative_to(path)).encode())
        digest.update(f.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, workload, trace: bool):
        self.wl = workload
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference_digest = None

    def setup_seconds(self) -> float:
        """Median wall time of a cold `import ricemele.cli`.

        The first import of a fresh checkout also writes the bytecode cache;
        the median leaves that one slow sample out.
        """
        argv = [sys.executable, "-c", "import ricemele.cli"]
        log = self.wl.workdir / "setup.log"
        samples = [run_process(argv, self.env, log) for _ in range(SETUP_REPEATS)]
        if any(r["rc"] != 0 for r in samples):
            raise RuntimeError(f"cannot import ricemele.cli: see {log}")
        return statistics.median(r["wall_s"] for r in samples)

    def one_pass(self, index: int):
        passdir = self.wl.workdir / f"pass{index}"
        passdir.mkdir()
        results, ok = [], []
        for k, (label, args) in enumerate(self.wl.commands(passdir)):
            if self.trace:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(passdir / f"spans-{k}.json"), *args]
            else:
                argv = [sys.executable, "-m", "ricemele.cli", *args]
            r = run_process(argv, self.env, passdir / f"{label}.log")
            self.attempted += 1
            if r["rc"] != 0:
                self.failed += 1
            results.append(r)
            ok.append((label, passdir / label, r["rc"] == 0))
        self.verify(index, passdir, ok)
        wall = sum(r["wall_s"] for r in results)
        if self.trace:
            metrics = span_metrics.per_layer(sorted(passdir.glob("spans-*.json")), passdir)
            metrics["trace.pass_s"] = wall
        else:
            metrics = {
                "pass_s": wall,
                "cpu_s": sum(r["cpu_s"] for r in results),
                "peak_rss_mib": max(r["rss_mib"] for r in results),
            }
        return passdir, metrics

    def verify(self, index: int, passdir: Path, outcomes: list) -> None:
        """Check the first pass; later passes must reproduce its bytes."""
        if index == 0:
            for label, outdir, succeeded in outcomes:
                if not succeeded:
                    continue
                try:
                    self.wl.check(label, outdir)
                except checks.CheckFailed as exc:
                    self.errors.append(f"{label}: {exc}")
                except Exception as exc:  # a malformed output must fail the check, not the run
                    self.errors.append(f"{label}: unreadable output: {exc!r}")
            self.reference_digest = tree_digest(passdir)
        elif tree_digest(passdir) != self.reference_digest:
            self.errors.append(f"pass {index} wrote different bytes than pass 0")

    def measure(self, seconds: float):
        samples, spent, index, last = [], 0.0, 0, None
        while index == 0 or spent < seconds:
            passdir, metrics = self.one_pass(index)
            spent += metrics.get("trace.pass_s", metrics.get("pass_s"))
            samples.append(metrics)
            if last is not None:
                shutil.rmtree(last)
            last, index = passdir, index + 1
        last.rename(self.wl.workdir / "last")
        key = "trace.pass_s" if self.trace else "pass_s"
        print(f"[{self.wl.name}] {key} per pass: " + " ".join(f"{s[key]:.3f}" for s in samples),
              file=sys.stderr)
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}, index


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[name](seed, workdir)
    wl.prepare()
    runner = Runner(wl, trace)
    setup = None if trace else runner.setup_seconds()
    medians, passes = runner.measure(seconds)
    if trace:
        metrics = {k: {"value": v, "unit": span_metrics.unit(k)} for k, v in medians.items()}
    else:
        medians["setup_s"] = setup
        metrics = {k: {"value": medians[k], "unit": u} for k, u in UNITS.items()}
    for err in runner.errors:
        print(f"CHECK FAILED [{name}] {err}", file=sys.stderr)
    print(f"[{name}] seed {seed}: {passes} passes, {runner.attempted} commands, "
          f"{runner.failed} failed, outputs {'correct' if not runner.errors else 'WRONG'}",
          file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {name:14s} {k:38s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": not runner.errors, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ricemele" / "cli.py").is_file():
        print(f"error: no ricemele sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
