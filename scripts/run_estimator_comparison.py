#!/usr/bin/env python3
"""Renyi(0.5) MSE vs sample size: corrected vs plain estimator.

Fixed small k (the corrected estimator's fast-rate regime), balanced
split, live boundary detector.  Writes a CSV of per-T MSEs and prints the
log-log slopes.
"""

import argparse
import csv

from knnfunc import BoundaryConfig, TrialSpec, monte_carlo, rate_fit
from mixture_truths import MIXTURE, functional_truth


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--seed", type=int, default=40_000)
    ap.add_argument("--output", default="estimator_comparison.csv")
    args = ap.parse_args()

    truth = functional_truth(alpha=0.5)
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.15)
    Ts = [2500, 5000, 10_000, 20_000]
    mse_bc, mse_plain = [], []
    for T in Ts:
        common = dict(
            generator="beta_uniform_mixture",
            generator_params=MIXTURE,
            T=T, alpha_frac=0.5, functional_id="renyi", alpha=0.5,
            k_rule="fixed", k=args.k, truth=truth,
            base_seed=args.seed + T,
        )
        bc = monte_carlo(TrialSpec(bias_correct=True, boundary_config=cfg, **common),
                         args.trials)
        plain = monte_carlo(TrialSpec(bias_correct=False, **common), args.trials)
        mse_bc.append(bc.summary["mse"])
        mse_plain.append(plain.summary["mse"])
        print(f"T={T:6d}  mse_corrected={mse_bc[-1]:.3e}  mse_plain={mse_plain[-1]:.3e}")

    with open(args.output, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T", "mse_corrected", "mse_plain"])
        w.writerows(zip(Ts, mse_bc, mse_plain))

    s_bc, _, _ = rate_fit(Ts, mse_bc)
    s_pl, _, _ = rate_fit(Ts, mse_plain)
    print(f"\nlog-log MSE slopes: corrected {s_bc:.2f}, plain {s_pl:.2f}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
