#!/usr/bin/env python3
"""Bias of the Shannon plug-in estimator vs k on the d=3 mixture.

Reproduces the bias-vs-bandwidth study: N=3000 evaluation / M=7000
reference points, k swept over a grid, both the plain and the
bias-corrected estimator, against a Monte Carlo truth.  Writes a CSV and
prints the empirical |bias| minimizer next to the theory recommendation.
"""

import argparse
import csv
import math

from knnfunc import BoundaryConfig, TrialSpec, monte_carlo, optimal_k, shannon_functional
from mixture_truths import MIXTURE, functional_truth, shannon_constants


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--t-total", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=20_000)
    ap.add_argument("--output", default="bias_sweep.csv")
    args = ap.parse_args()

    truth = functional_truth("shannon")
    c1, c2 = shannon_constants("c1", "c2")
    cfg = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
    ks = list(range(5, 151, 5))
    M = round(0.7 * args.t_total)  # the split's reference count
    rows = []
    for k in ks:
        spec = TrialSpec(
            generator="beta_uniform_mixture",
            generator_params=MIXTURE,
            T=args.t_total, alpha_frac=0.7, functional_id="shannon",
            k_rule="fixed", k=k, bias_correct=False, boundary_config=cfg,
            base_seed=args.seed + k,
        )
        res = monte_carlo(spec, args.trials)
        mean = res.summary["mean"]
        bias_plain = mean - truth
        g1, g2 = shannon_functional().bias_factors(k, M)
        bias_bc = (mean - g2) / g1 - truth
        se = math.sqrt(res.summary["variance"] / args.trials)
        rows.append((k, bias_plain, bias_bc, se))
        print(f"k={k:4d}  bias_plain={bias_plain:+.4f}  bias_bc={bias_bc:+.4f}")

    with open(args.output, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "bias_plain", "bias_bias_corrected", "se"])
        w.writerows(rows)

    minimizer = min(rows, key=lambda r: abs(r[1]))[0]
    k_rec = optimal_k(c1, c2, 3, M)
    print(f"\nempirical |bias| minimizer: k = {minimizer}")
    print(f"theory recommendation (oracle constants): k = {k_rec}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
