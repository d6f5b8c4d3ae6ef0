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

from pbitqkd.estimation import (
    decompose_two_local,
    estimate_eps_z_locc,
    joint_outcome_table,
)
from pbitqkd.protocol import twisting_by_name
from pbitqkd.states import P_STAR, rho_h
from pbitqkd.twist import gamma_x, make_pdit
from pbitqkd.linalg import basis_ket, kron_all, proj


def spread(state, dec, m_prime, trials, seed):
    rng = np.random.default_rng(seed)
    tables = {pair: joint_outcome_table(state, dec, *pair) for pair in dec.support()}
    vals = []
    for _ in range(trials):
        records = {
            pair: products[rng.choice(probs.size, size=m_prime, p=probs)]
            for pair, (probs, products) in tables.items()
        }
        vals.append(estimate_eps_z_locc(records, dec).eps_z_raw)
    return float(np.mean(vals)), float(np.std(vals))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    tw = twisting_by_name("u_h")
    anc = proj(kron_all(basis_ket(0, 2), basis_ket(0, 2)))
    pbit = make_pdit(tw, anc)
    hiding = rho_h(P_STAR, 0.0)
    dec = decompose_two_local(gamma_x(tw, pbit.layout), pbit.layout, ("A", "A'"), ("B", "B'"))

    print(f"{args.trials} trials per cell; estimator sd is on the raw (unclamped) estimate\n")
    print(f"{'state':>10} {'m_prime':>8} {'mean':>9} {'sd':>9} {'sd*sqrt(mp)':>12}")
    for name, st in (("pbit", pbit), ("rho_H(p*)", hiding)):
        for mp in (100, 400, 1600, 6400):
            mean, sd = spread(st, dec, mp, args.trials, args.seed)
            print(f"{name:>10} {mp:>8} {mean:9.4f} {sd:9.4f} {sd * np.sqrt(mp):12.4f}")

    print()
    sd400 = spread(pbit, dec, 400, args.trials, args.seed)[1]
    need = (1.96 * sd400 * np.sqrt(400) / 0.02) ** 2
    print(f"pbit sd at m' = 400 is {sd400:.4f}; +/-0.02 at 95% needs m' >= {need:.0f}")


if __name__ == "__main__":
    main()
