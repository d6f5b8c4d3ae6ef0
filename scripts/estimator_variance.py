#!/usr/bin/env python3
"""Measure the phase-error estimator's spread against the per-group sample count.

The decomposed estimate is a weighted sum of group means, so its standard
deviation scales like sqrt(V / m') with V set by the coefficients and the
outcome distributions.  This script measures that spread empirically for the
hiding state at its critical point and for a clean pbit, and reports the
implied per-group count needed to hit a target accuracy at 95% confidence --
which is what decides whether a finite-trial recovery criterion is
statistically attainable.

Usage: python3 scripts/estimator_variance.py [--trials T]
"""

import argparse

import numpy as np

from pbitqkd.protocol import SourceSpec, run_estimate
from pbitqkd.states import P_STAR


def spread(source, m_prime, trials, seed):
    """Mean and sd of the raw u_h estimate over runs seeded seed, seed + 1, ..."""
    vals = [
        run_estimate(source, seed + i, 1, m_prime, ("u_h",))["candidates"]["u_h"]["eps_z_raw"]
        for i in range(trials)
    ]
    return float(np.mean(vals)), float(np.std(vals))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    pbit = SourceSpec(kind="pbit", twisting="u_h", ancilla="comp00")
    hiding = SourceSpec(p=P_STAR, kappa=0.0)

    print(f"{args.trials} trials per cell; estimator sd is on the raw (unclamped) estimate\n")
    print(f"{'state':>10} {'m_prime':>8} {'mean':>9} {'sd':>9} {'sd*sqrt(mp)':>12}")
    for name, st in (("pbit", pbit), ("rho_H(p*)", hiding)):
        for mp in (100, 400, 1600, 6400):
            mean, sd = spread(st, mp, args.trials, args.seed)
            print(f"{name:>10} {mp:>8} {mean:9.4f} {sd:9.4f} {sd * np.sqrt(mp):12.4f}")

    print()
    sd400 = spread(pbit, 400, args.trials, args.seed)[1]
    need = (1.96 * sd400 * np.sqrt(400) / 0.02) ** 2
    print(f"pbit sd at m' = 400 is {sd400:.4f}; +/-0.02 at 95% needs m' >= {need:.0f}")


if __name__ == "__main__":
    main()
