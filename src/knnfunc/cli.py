"""Command-line front end.

Every subcommand takes an explicit --seed (default 0, echoed in the
output), writes machine-readable JSON or CSV, and is deterministic for a
fixed argv.  Usage errors exit 2 before any output file is touched; data
and runtime errors exit 1.

The boundary detector runs only when --lipschitz and --eps0 are both
given; without them the estimators plug in the standard k-NN density.
"""

import argparse
import json
import sys

import numpy as np

SCHEMA_VERSION = 1


def _boundary_config(args):
    """The detector the flags ask for, or None when they ask for none."""
    from .boundary import BoundaryConfig

    if args.lipschitz is None:
        return None
    tuning = {"delta": args.delta, "pk_scale": args.pk_scale}
    return BoundaryConfig(
        lipschitz_L=args.lipschitz,
        eps0=args.eps0,
        **{name: v for name, v in tuning.items() if v is not None},
    )


def _check_detector_flags(parser, args):
    """--lipschitz and --eps0 come together, and --delta and --pk-scale
    tune the detector they turn on."""
    if (args.lipschitz is None) != (args.eps0 is None):
        parser.error("--lipschitz and --eps0 must be given together")
    if args.lipschitz is None and (args.delta is not None or args.pk_scale is not None):
        parser.error("--delta and --pk-scale need --lipschitz and --eps0")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="base seed (echoed in output)")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def _add_input(p):
    p.add_argument("--input", required=True, help="CSV of samples")
    p.add_argument("--header", action="store_true", help="skip the first CSV row")


def _add_detector(p):
    p.add_argument("--lipschitz", type=float, default=None,
                   help="density's Lipschitz constant; with --eps0, runs the detector")
    p.add_argument("--eps0", type=float, default=None, help="density's lower bound")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--pk-scale", type=float, default=None)


def _add_estimator(p, ci_level=True):
    _add_input(p)
    p.add_argument("--alpha-frac", type=float, default=0.7,
                   help="reference fraction M/T of the split")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None, help="fixed neighbor count")
    group.add_argument("--k-rule", choices=["rate"], default=None,
                       help="rate-matched k = M^(2/(2+d))")
    _add_detector(p)
    if ci_level:
        p.add_argument("--ci-level", type=float, default=0.95)


def _prepare(args):
    """Load the input, split it, and resolve k: (data, split, k)."""
    from .data import load_csv, split
    from .tuning import rate_matched_k

    data = load_csv(args.input, header=args.header)
    sp = split(data, args.alpha_frac, args.seed)
    k = args.k if args.k is not None else rate_matched_k(sp.n_ref, data.dim)
    return data, sp, k


def _write(text, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, args):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)


def _report_payload(report, args, extra=None):
    payload = {"schema_version": SCHEMA_VERSION, "seed": args.seed}
    payload.update(report.to_dict())
    if extra:
        payload.update(extra)
    return payload


def cmd_generate(args):
    from .inference import generate_dataset

    params = {}
    if args.dist == "beta-uniform":
        params = {"d": args.d, "a": args.a, "b": args.b, "eps": args.eps}
        name = "beta_uniform_mixture"
    elif args.dist == "uniform":
        params = {"d": args.d}
        name = "uniform"
    elif args.dist == "manifold":
        params = {"intrinsic_d": args.intrinsic_d, "ambient_D": args.ambient_D}
        name = "projected_manifold"
    data = generate_dataset(name, args.T, args.seed, params)
    rows = "\n".join(",".join(format(v, ".17g") for v in row) for row in data.points)
    _write(rows + "\n", args)
    return 0


def cmd_density(args):
    from .functionals import _density_values

    data, sp, k = _prepare(args)
    dens = _density_values(data, sp, k, _boundary_config(args))
    ev = sp.eval_points(data)
    interior_flag = np.ones(sp.n_eval, dtype=bool)
    if dens.labels is not None:
        interior_flag[dens.labels.boundary] = False
    lines = [f"# seed={args.seed} k={k} N={sp.n_eval} M={sp.n_ref} kind={dens.estimator_kind}"]
    for row, val, flag in zip(ev, dens.values, interior_flag):
        coords = ",".join(format(v, ".17g") for v in row)
        lines.append(f"{coords},{val:.17g},{'interior' if flag else 'boundary'}")
    _write("\n".join(lines) + "\n", args)
    return 0


def cmd_entropy(args):
    from .functionals import bpi_estimate, bpi_estimate_bc, shannon_functional

    data, sp, k = _prepare(args)
    estimator = bpi_estimate if args.no_bias_correction else bpi_estimate_bc
    report = estimator(data, sp, shannon_functional(), k,
                       config=_boundary_config(args), ci_level=args.ci_level)
    _emit(_report_payload(report, args, {"functional": "shannon"}), args)
    return 0


def cmd_renyi(args):
    from .functionals import renyi_entropy

    data, sp, k = _prepare(args)
    report = renyi_entropy(
        data, sp, args.alpha, k, config=_boundary_config(args), ci_level=args.ci_level
    )
    _emit(_report_payload(report, args, {"functional": "renyi_entropy",
                                         "alpha": args.alpha}), args)
    return 0


def cmd_mi(args):
    from .functionals import mutual_information

    data, sp, k = _prepare(args)
    x_cols = [int(c) for c in args.x_cols.split(",")]
    y_cols = [int(c) for c in args.y_cols.split(",")]
    report = mutual_information(
        data, sp, x_cols, y_cols, k,
        config=_boundary_config(args), ci_level=args.ci_level,
    )
    _emit(_report_payload(report, args, {"functional": "mutual_information",
                                         "x_cols": x_cols, "y_cols": y_cols}), args)
    return 0


def cmd_tune(args):
    from .data import beta_uniform_mixture_density, uniform_density
    from .functionals import renyi_functional, shannon_functional
    from .tuning import constants_oracle, optimal_k, rate_matched_k

    if args.density == "beta-uniform":
        dens = beta_uniform_mixture_density(args.d, args.a, args.b, args.eps)
    else:
        dens = uniform_density(args.d)
    func = shannon_functional() if args.functional == "shannon" else renyi_functional(args.alpha)
    consts = constants_oracle(dens, func, args.n_mc, args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "mode": consts.mode,
        "c1": consts.c1, "c2": consts.c2, "c3": consts.c3,
        "c4": consts.c4, "c5": consts.c5,
        "k_opt": optimal_k(consts.c1 + consts.c3, consts.c2, args.d, args.M),
        "k_rate_matched": rate_matched_k(args.M, args.d),
        "M": args.M,
    }
    _emit(payload, args)
    return 0


def cmd_experiment(args):
    from .boundary import BoundaryConfig
    from .inference import TrialSpec, monte_carlo, normality_diagnostics

    with open(args.spec, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"spec {args.spec}: expected a JSON object of TrialSpec "
                         f"fields, got {type(raw).__name__}")
    bc = raw.pop("boundary_config", None)
    try:
        spec = TrialSpec(
            boundary_config=None if bc is None else BoundaryConfig(**bc), **raw
        )
    except TypeError as exc:  # a key the spec does not have, or lacks
        raise ValueError(f"spec {args.spec}: {exc}") from None
    results = monte_carlo(spec, args.trials)
    summary = dict(results.summary)
    summary["schema_version"] = SCHEMA_VERSION
    if results.estimates.size >= 20 and np.std(results.estimates) > 0:
        ks, p, _ = normality_diagnostics(results.estimates)
        summary["ks_statistic"] = ks
        summary["ks_p"] = p
    if args.trials_csv:
        with open(args.trials_csv, "w", encoding="utf-8") as fh:
            fh.write("trial,k,estimate\n")
            for t, (k, e) in enumerate(zip(results.ks, results.estimates)):
                fh.write(f"{t},{k},{e:.17g}\n")
    _emit(summary, args)
    return 0


def cmd_dimension(args):
    from .data import load_csv
    from .dimension import estimate_dimension

    data = load_csv(args.input, header=args.header)
    est = estimate_dimension(
        data, args.k1, args.k2, gamma=args.gamma, variant=args.variant,
        alpha_frac=args.alpha_frac, seed=args.seed,
    )
    payload = {
        "schema_version": SCHEMA_VERSION, "seed": args.seed,
        "d_hat": est.d_hat, "d_rounded": est.d_rounded,
        "alpha_hat": est.alpha_hat, "k1": est.k1, "k2": est.k2,
        "gamma": est.gamma, "variant": est.variant,
        "variance_estimate": est.variance_estimate,
    }
    _emit(payload, args)
    return 0


def cmd_dimension_scan(args):
    from .data import load_csv
    from .dimension import anomaly_scan

    data = load_csv(args.input, header=args.header)
    results = anomaly_scan(
        data, args.window, args.stride, args.k1, args.k2,
        gamma=args.gamma, alpha_frac=args.alpha_frac, seed=args.seed,
    )
    lines = ["window_start,d_hat,d_rounded"]
    for start, est in results:
        if est is None:
            lines.append(f"{start},,")
        else:
            lines.append(f"{start},{est.d_hat:.17g},{est.d_rounded}")
    _write("\n".join(lines) + "\n", args)
    return 0


def _load_models(path):
    """The models and the pairs to compare of a --models file: an object
    whose "models" maps names to lists of column lists, and whose optional
    "pairs" lists [name, name] pairs (default: every pair, by name)."""
    from .structure import Factorization

    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict) or not isinstance(spec.get("models"), dict):
        raise ValueError(f'models {path}: expected an object whose "models" '
                         "maps names to lists of column lists")
    models = {}
    for name, factors in spec["models"].items():
        if not (isinstance(factors, list) and all(
                isinstance(f, list) and all(type(c) is int for c in f) for f in factors)):
            raise ValueError(f"models {path}: model {name!r} is not a list of column lists")
        models[name] = Factorization(tuple(tuple(f) for f in factors), name)
    pairs = spec.get("pairs")
    if pairs is None:
        names = sorted(models)
        return models, [[a, b] for i, a in enumerate(names) for b in names[i + 1 :]]
    if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ValueError(f'models {path}: "pairs" must be a list of [name, name] pairs')
    for name in (n for p in pairs for n in p):
        if not isinstance(name, str) or name not in models:
            raise ValueError(f"models {path}: a pair names unknown model {name!r}")
    return models, pairs


def cmd_structure(args):
    from .data import load_csv
    from .structure import compare_models

    models, pairs = _load_models(args.models)
    data = load_csv(args.input, header=args.header)
    out = []
    for a, b in pairs:
        cmp_ = compare_models(
            data, models[a], models[b], args.k,
            budget=args.budget, alpha_frac=args.alpha_frac,
            config=_boundary_config(args), seed=args.seed,
        )
        out.append(cmp_.to_dict())
    _emit({"schema_version": SCHEMA_VERSION, "seed": args.seed,
           "comparisons": out}, args)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="knnfunc",
        description="k-NN plug-in estimation of entropy, mutual information, "
                    "intrinsic dimension, and factor-graph cross-entropy tests",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    g.add_argument("--dist", choices=["beta-uniform", "uniform", "manifold"],
                   required=True)
    g.add_argument("--T", type=int, required=True)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--a", type=float, default=4.0)
    g.add_argument("--b", type=float, default=4.0)
    g.add_argument("--eps", type=float, default=0.2)
    g.add_argument("--intrinsic-d", type=int, default=2)
    g.add_argument("--ambient-D", type=int, default=3)
    _add_common(g)
    g.set_defaults(fn=cmd_generate)

    dns = sub.add_parser("density", help="density estimates at the eval points")
    _add_estimator(dns, ci_level=False)
    _add_common(dns)
    dns.set_defaults(fn=cmd_density)

    ent = sub.add_parser("entropy", help="Shannon entropy estimate")
    _add_estimator(ent)
    ent.add_argument("--no-bias-correction", action="store_true")
    _add_common(ent)
    ent.set_defaults(fn=cmd_entropy)

    ren = sub.add_parser("renyi", help="Renyi entropy estimate")
    _add_estimator(ren)
    ren.add_argument("--alpha", type=float, required=True)
    _add_common(ren)
    ren.set_defaults(fn=cmd_renyi)

    mi = sub.add_parser("mi", help="Shannon mutual information estimate")
    _add_estimator(mi)
    mi.add_argument("--x-cols", required=True, help="comma-separated column indices")
    mi.add_argument("--y-cols", required=True)
    _add_common(mi)
    mi.set_defaults(fn=cmd_mi)

    tn = sub.add_parser("tune", help="oracle theory constants and recommended k")
    tn.add_argument("--density", choices=["beta-uniform", "uniform"], required=True)
    tn.add_argument("--d", type=int, default=3)
    tn.add_argument("--a", type=float, default=4.0)
    tn.add_argument("--b", type=float, default=4.0)
    tn.add_argument("--eps", type=float, default=0.2)
    tn.add_argument("--functional", choices=["shannon", "renyi"], default="shannon")
    tn.add_argument("--alpha", type=float, default=0.5)
    tn.add_argument("--n-mc", type=int, default=200_000)
    tn.add_argument("--M", type=int, required=True)
    _add_common(tn)
    tn.set_defaults(fn=cmd_tune)

    ex = sub.add_parser("experiment", help="Monte Carlo trials from a JSON spec")
    ex.add_argument("--spec", required=True, help="TrialSpec as JSON")
    ex.add_argument("--trials", type=int, required=True)
    ex.add_argument("--trials-csv", default=None, help="per-trial CSV output path")
    _add_common(ex)
    ex.set_defaults(fn=cmd_experiment)

    dm = sub.add_parser("dimension", help="intrinsic dimension estimate")
    _add_input(dm)
    dm.add_argument("--k1", type=int, default=25)
    dm.add_argument("--k2", type=int, default=None)
    dm.add_argument("--gamma", type=float, default=1.0)
    dm.add_argument("--variant", choices=["independent", "correlated"],
                    default="correlated")
    dm.add_argument("--alpha-frac", type=float, default=0.7)
    _add_common(dm)
    dm.set_defaults(fn=cmd_dimension)

    ds = sub.add_parser("dimension-scan", help="sliding-window dimension trace")
    _add_input(ds)
    ds.add_argument("--window", type=int, required=True)
    ds.add_argument("--stride", type=int, default=1)
    ds.add_argument("--k1", type=int, default=5)
    ds.add_argument("--k2", type=int, default=None)
    ds.add_argument("--gamma", type=float, default=1.0)
    ds.add_argument("--alpha-frac", type=float, default=0.7)
    _add_common(ds)
    ds.set_defaults(fn=cmd_dimension_scan)

    st = sub.add_parser("structure", help="factor-graph cross-entropy comparisons")
    _add_input(st)
    st.add_argument("--models", required=True,
                    help='JSON: {"models": {name: [[cols], ...]}, "pairs": [[a,b], ...]}')
    st.add_argument("--k", type=int, default=20)
    st.add_argument("--budget", type=int, default=None)
    st.add_argument("--alpha-frac", type=float, default=0.5)
    _add_detector(st)
    _add_common(st)
    st.set_defaults(fn=cmd_structure)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "lipschitz"):
            _check_detector_flags(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
