#!/usr/bin/env python3
"""Full-scale fit reproduction: synthetic 19-peak spectrum at the fitted
device values, two-stage fit, and a 10000-sample bootstrap (the desk-scale
tests use 1000). Prints per-parameter intervals next to the quoted
uncertainties."""

import argparse
import json
import pathlib
import time

# ricemele before numpy: it sets OpenBLAS to one thread before numpy loads
from ricemele import FitObservations, ModelParams, bootstrap_fit
from ricemele.fitting import model_anticrossing_gap, model_peak_frequencies
from ricemele.model import Peak, PeakSet

import numpy as np

TRUTH = ModelParams(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=0.0, VM=590.0, f0=4600.0)
INITIAL = TRUTH.with_(t1=200.0, t2=300.0, V=30.0, VM=550.0, tQ=100.0, f0=4550.0)
GAP_VQS = (-20.0, 0.0, 17.6, 35.0, 55.0)
QUOTED = {"t1": 20.0, "t2": 20.0, "V": 20.0, "VM": 50.0, "tQ": 20.0}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/fit/reproduction.json")
    parser.add_argument("--bootstrap", type=int, default=10000)
    parser.add_argument("--jitter", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    peaks = PeakSet([
        Peak(0.0, float(f + rng.normal(0.0, args.jitter)), 1.0)
        for f in model_peak_frequencies(TRUTH)
    ])
    gaps = [
        (vq, model_anticrossing_gap(TRUTH, vq) + rng.normal(0.0, args.jitter))
        for vq in GAP_VQS
    ]

    start = time.time()
    result = bootstrap_fit(
        FitObservations(peaks=peaks, gaps=gaps), INITIAL,
        n=args.bootstrap, seed=args.seed,
    )
    elapsed = time.time() - start

    report = {"n_bootstrap": result.n_bootstrap, "runtime_s": round(elapsed, 1),
              "residual_rms_MHz": result.residual_rms, "parameters": {}}
    for name, quoted in QUOTED.items():
        best = getattr(result.best, name)
        truth = getattr(TRUTH, name)
        report["parameters"][name] = {
            "truth": truth,
            "best": best,
            "p2_5": result.percentile_2_5[name],
            "p97_5": result.percentile_97_5[name],
            "std": result.std[name],
            "quoted_uncertainty": quoted,
            "within_quoted": abs(best - truth) <= quoted,
        }
        print(f"{name:>3}: best {best:8.2f}  truth {truth:7.1f}  "
              f"CI [{result.percentile_2_5[name]:8.2f}, {result.percentile_97_5[name]:8.2f}]  "
              f"std {result.std[name]:6.2f}  (quoted +-{quoted})")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"bootstrap n={result.n_bootstrap} finished in {elapsed:.1f} s -> {out}")
