#!/usr/bin/env python3
"""Empirical estimator variance vs the c4/N + c5/M prediction."""

import argparse
import csv

from knnfunc import BoundaryConfig, TrialSpec, monte_carlo
from mixture_truths import MIXTURE, shannon_constants


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--t-total", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=50_000)
    ap.add_argument("--output", default="variance_check.csv")
    args = ap.parse_args()

    (c4,) = shannon_constants("c4")
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    rows = []
    for M in (4000, 6000, 8000):
        N = args.t_total - M
        spec = TrialSpec(
            generator="beta_uniform_mixture",
            generator_params=MIXTURE,
            T=args.t_total, alpha_frac=M / args.t_total,
            functional_id="shannon", k_rule="rate", bias_correct=False,
            boundary_config=cfg, base_seed=args.seed + M,
        )
        res = monte_carlo(spec, args.trials)
        predicted = c4 / N  # c5 = 0 for Shannon
        rows.append((M, N, res.summary["variance"], predicted))
        print(f"M={M:5d} N={N:5d}  empirical={rows[-1][2]:.3e} "
              f"predicted={predicted:.3e}  ratio={rows[-1][2]/predicted:.3f}")

    with open(args.output, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["M", "N", "empirical_variance", "predicted_variance"])
        w.writerows(rows)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
