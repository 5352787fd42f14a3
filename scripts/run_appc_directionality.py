#!/usr/bin/env python3
"""Directionality estimate two ways: measured amplitude quadruple, and the
full synthetic pipeline (Bloch port traces -> demodulation -> bootstrap ->
chi). The synthetic branch uses emission weights taken from the dressed
in-gap mode of the fitted device at each working point."""

import argparse
import json

# ricemele before numpy: it sets OpenBLAS to one thread before numpy loads
from ricemele import (
    BlochParams,
    ModelParams,
    SignalAmplitudes,
    bloch_rabi_trace,
    bootstrap_amplitude,
    chi_estimate,
    directionality,
    decay_time,
    dressed_in_gap_mode,
    far_detuned_gap,
)

import numpy as np

FITTED = ModelParams(p=4, V=40.0, t1=230.0, t2=280.0, tQ=130.0, VQ=-40.0, VM=590.0,
                     sigmaL=-18j, sigmaR=-18j)
F_RABI = 25.0
NOISE = 0.02


def synthetic_amplitudes(n_bootstrap, seed):
    gap = far_detuned_gap(FITTED)
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, 4096.0, 1.0)
    values, stds = {}, {}
    for state, vq in (("l", -FITTED.V), ("r", +FITTED.V)):
        params = FITTED.with_(VQ=vq)
        energy, mode = dressed_in_gap_mode(params, gap)
        t1 = decay_time(energy)
        rep = directionality(mode, mode_roles(), "left")
        bp = BlochParams(rabi_freq=F_RABI, T1=t1, T2=2.0 * t1,
                         w_left=rep.pop_left, w_right=rep.pop_right)
        trace = bloch_rabi_trace(bp, t, drive_on_until=t[-1])
        for port in ("L", "R"):
            noisy = trace.channel(f"port_{port}") + rng.normal(0.0, NOISE, t.size)
            mean, std = bootstrap_amplitude(t, noisy, F_RABI, n=n_bootstrap, seed=seed)
            values[f"s_{state}{port}"] = mean
            stds[f"std_{state}{port}"] = std
    return SignalAmplitudes(**values, **stds)


def mode_roles():
    from ricemele.model import site_roles

    return site_roles(FITTED.p)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/appc/chi_pipeline.json")
    parser.add_argument("--bootstrap", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    measured = SignalAmplitudes(s_lL=108.2, s_lR=0.3, s_rL=0.7, s_rR=54.5,
                                std_lL=0.3, std_lR=0.3, std_rL=0.3, std_rR=0.3)
    synthetic = synthetic_amplitudes(args.bootstrap, args.seed)

    payload = {
        "measured_quadruple": chi_estimate(measured).as_dict(),
        "synthetic_pipeline": chi_estimate(synthetic).as_dict(),
        "synthetic_amplitudes": {
            k: getattr(synthetic, k)
            for k in ("s_lL", "s_lR", "s_rL", "s_rR", "std_lL", "std_lR", "std_rL", "std_rR")
        },
    }
    import pathlib

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(out)
    print(json.dumps(payload["measured_quadruple"], indent=2, sort_keys=True))
