"""Command-line front end.

Each subcommand writes JSON or CSV, deterministic for a fixed argv.  All
but `experiment` take --seed (default 0); `experiment` seeds its trials
from the spec's base_seed.  JSON outputs carry schema_version and, but for
`experiment`'s, the seed; of the CSV outputs (`generate`, `density`,
`dimension-scan`) only `density`'s header echoes it.  Usage errors exit 2
before any output file is touched; data and runtime errors exit 1.

Estimators take the rate-matched k = M^(2/(2+d)) unless --k is given, and
run the boundary detector only when --lipschitz and --eps0 are both
given; without them they plug in the standard k-NN density.
"""

import argparse
import dataclasses
import json
import sys
from functools import partial

import numpy as np

SCHEMA_VERSION = 1

# generate --dist: the generate_dataset name, and the flags its params come from
DISTRIBUTIONS = {
    "beta-uniform": ("beta_uniform_mixture", ("d", "a", "b", "eps")),
    "uniform": ("uniform", ("d",)),
    "manifold": ("projected_manifold", ("intrinsic_d", "ambient_D")),
}


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


def _columns(text):
    """--x-cols/--y-cols: comma-separated column indices."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _flag(*names, **kwargs):
    """One flag, as a group that _subcommand adds."""
    return lambda p: p.add_argument(*names, **kwargs)


def _add_input(p):
    p.add_argument("--input", required=True, help="CSV of samples")
    p.add_argument("--header", action="store_true", help="skip the first CSV row")


def _add_detector(p):
    p.add_argument("--lipschitz", type=float, default=None,
                   help="density's Lipschitz constant; with --eps0, runs the detector")
    p.add_argument("--eps0", type=float, default=None, help="density's lower bound")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--pk-scale", type=float, default=None)


def _add_estimator(p):
    _add_input(p)
    p.add_argument("--alpha-frac", type=float, default=0.7,
                   help="reference fraction M/T of the split")
    p.add_argument("--k", type=int, default=None,
                   help="neighbor count (default: rate-matched M^(2/(2+d)))")
    _add_detector(p)


_add_ci_level = _flag("--ci-level", type=float, default=0.95)


def _add_mixture(p):
    """The dimension, and the Beta-uniform mixture's a, b and eps."""
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--a", type=float, default=4.0)
    p.add_argument("--b", type=float, default=4.0)
    p.add_argument("--eps", type=float, default=0.2)


def _add_dimension(p, k1):
    _add_input(p)
    p.add_argument("--k1", type=int, default=k1)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha-frac", type=float, default=0.7)


def _load(args):
    from .data import load_csv

    return load_csv(args.input, header=args.header)


def _prepare(args):
    """Load the input, split it, and resolve k: (data, split, k)."""
    from .data import split
    from .tuning import rate_matched_k

    data = _load(args)
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


def _emit_seeded(payload, args):
    """Emit payload with the schema version and the seed."""
    _emit({"schema_version": SCHEMA_VERSION, "seed": args.seed, **payload}, args)


def _csv_row(values):
    return ",".join(format(v, ".17g") for v in values)


def cmd_generate(args):
    from .inference import generate_dataset

    name, flags = DISTRIBUTIONS[args.dist]
    params = {flag: getattr(args, flag) for flag in flags}
    data = generate_dataset(name, args.T, args.seed, params)
    _write("\n".join(_csv_row(row) for row in data.points) + "\n", args)


def cmd_density(args):
    from .density import knn_density
    from .knn import build_index

    data, sp, k = _prepare(args)
    ev = sp.eval_points(data)
    dens = knn_density(build_index(sp.ref_points(data)), ev, k, _boundary_config(args))
    interior_flag = np.ones(sp.n_eval, dtype=bool)
    if dens.labels is not None:
        interior_flag[dens.labels.boundary] = False
    kind = "standard" if dens.labels is None else "corrected"
    lines = [f"# seed={args.seed} k={k} N={sp.n_eval} M={sp.n_ref} kind={kind}"]
    for row, val, flag in zip(ev, dens.values, interior_flag):
        lines.append(f"{_csv_row(row)},{val:.17g},{'interior' if flag else 'boundary'}")
    _write("\n".join(lines) + "\n", args)


def cmd_estimate(estimate, args):
    """entropy, renyi and mi: estimate(args, data, split, k) returns the
    report and the keys the subcommand adds to its JSON."""
    data, sp, k = _prepare(args)
    report, extra = estimate(args, data, sp, k)
    _emit_seeded({**report.to_dict(), **extra}, args)


def _shannon(args, data, sp, k):
    from .functionals import bpi_estimate, bpi_estimate_bc, shannon_functional

    estimator = bpi_estimate if args.no_bias_correction else bpi_estimate_bc
    report = estimator(data, sp, shannon_functional(), k,
                       config=_boundary_config(args), ci_level=args.ci_level)
    return report, {"functional": "shannon"}


def _renyi(args, data, sp, k):
    from .functionals import renyi_entropy

    report = renyi_entropy(
        data, sp, args.alpha, k, config=_boundary_config(args), ci_level=args.ci_level
    )
    return report, {"functional": "renyi_entropy", "alpha": args.alpha}


def _mi(args, data, sp, k):
    from .functionals import mutual_information

    report = mutual_information(
        data, sp, args.x_cols, args.y_cols, k,
        config=_boundary_config(args), ci_level=args.ci_level,
    )
    return report, {"functional": "mutual_information",
                    "x_cols": args.x_cols, "y_cols": args.y_cols}


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
    _emit_seeded({
        **dataclasses.asdict(consts),  # c1..c5 and mode
        "k_opt": optimal_k(consts.c1 + consts.c3, consts.c2, args.d, args.M),
        "k_rate_matched": rate_matched_k(args.M, args.d),
        "M": args.M,
    }, args)


def cmd_experiment(args):
    from .boundary import BoundaryConfig
    from .inference import TrialSpec, monte_carlo, normality_diagnostics
    from .tuning import TheoryConstants

    with open(args.spec, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"spec {args.spec}: expected a JSON object of TrialSpec "
                         f"fields, got {type(raw).__name__}")
    bc = raw.pop("boundary_config", None)
    c = raw.pop("constants", None)
    try:
        spec = TrialSpec(
            boundary_config=None if bc is None else BoundaryConfig(**bc),
            constants=None if c is None else TheoryConstants(**c), **raw
        )
    except TypeError as exc:  # a key the spec does not have, or lacks
        raise ValueError(f"spec {args.spec}: {exc}") from None
    try:
        results = monte_carlo(spec, args.trials)
    except RuntimeError as exc:  # "trial t failed: <its error>"
        raise ValueError(str(exc)) from None
    summary = {**results.summary, "schema_version": SCHEMA_VERSION}
    if results.estimates.size >= 20 and np.std(results.estimates) > 0:
        summary["ks_statistic"], summary["ks_p"], _ = normality_diagnostics(results.estimates)
    if args.trials_csv:
        with open(args.trials_csv, "w", encoding="utf-8") as fh:
            fh.write("trial,k,estimate\n")
            for t, (k, e) in enumerate(zip(results.ks, results.estimates)):
                fh.write(f"{t},{k},{e:.17g}\n")
    _emit(summary, args)


def cmd_dimension(args):
    from .dimension import estimate_dimension

    est = estimate_dimension(
        _load(args), args.k1, args.k2, gamma=args.gamma, variant=args.variant,
        alpha_frac=args.alpha_frac, seed=args.seed,
    )
    _emit_seeded(dataclasses.asdict(est), args)


def cmd_dimension_scan(args):
    from .dimension import anomaly_scan

    results = anomaly_scan(
        _load(args), args.window, args.stride, args.k1, args.k2,
        gamma=args.gamma, alpha_frac=args.alpha_frac, seed=args.seed,
    )
    lines = ["window_start,d_hat,d_rounded"]
    for start, est in results:
        cells = "," if est is None else f"{est.d_hat:.17g},{est.d_rounded}"
        lines.append(f"{start},{cells}")
    _write("\n".join(lines) + "\n", args)


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
    from .structure import compare_models

    models, pairs = _load_models(args.models)
    data = _load(args)
    comparisons = [
        compare_models(data, models[a], models[b], args.k, budget=args.budget,
                       alpha_frac=args.alpha_frac, config=_boundary_config(args),
                       seed=args.seed).to_dict()
        for a, b in pairs
    ]
    _emit_seeded({"comparisons": comparisons}, args)


def _subcommand(sub, name, about, fn, *groups, seed=True):
    """Subcommand `name` runs fn(args).  Its flags are each group's in
    turn, then --seed (unless seed is False) and --output."""
    p = sub.add_parser(name, help=about)
    for add in groups:
        add(p)
    if seed:
        p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.set_defaults(fn=fn)


def build_parser():
    p = argparse.ArgumentParser(
        prog="knnfunc",
        description="k-NN plug-in estimation of entropy, mutual information, "
                    "intrinsic dimension, and factor-graph cross-entropy tests",
    )
    add = partial(_subcommand, p.add_subparsers(dest="command", required=True))
    add("generate", "write a synthetic dataset as CSV", cmd_generate,
        _flag("--dist", choices=list(DISTRIBUTIONS), required=True),
        _flag("--T", type=int, required=True), _add_mixture,
        _flag("--intrinsic-d", type=int, default=2),
        _flag("--ambient-D", type=int, default=3))
    add("density", "density estimates at the eval points", cmd_density, _add_estimator)
    add("entropy", "Shannon entropy estimate", partial(cmd_estimate, _shannon),
        _add_estimator, _add_ci_level, _flag("--no-bias-correction", action="store_true"))
    add("renyi", "Renyi entropy estimate", partial(cmd_estimate, _renyi),
        _add_estimator, _add_ci_level, _flag("--alpha", type=float, required=True))
    add("mi", "Shannon mutual information estimate", partial(cmd_estimate, _mi),
        _add_estimator, _add_ci_level,
        _flag("--x-cols", type=_columns, required=True, help="comma-separated column indices"),
        _flag("--y-cols", type=_columns, required=True))
    add("tune", "oracle theory constants and recommended k", cmd_tune,
        _flag("--density", choices=["beta-uniform", "uniform"], required=True),
        _add_mixture,
        _flag("--functional", choices=["shannon", "renyi"], default="shannon"),
        _flag("--alpha", type=float, default=0.5),
        _flag("--n-mc", type=int, default=200_000),
        _flag("--M", type=int, required=True))
    add("experiment", "Monte Carlo trials from a JSON spec", cmd_experiment,
        _flag("--spec", required=True, help="TrialSpec as JSON; base_seed seeds the trials"),
        _flag("--trials", type=int, required=True),
        _flag("--trials-csv", default=None, help="per-trial CSV output path"),
        seed=False)
    add("dimension", "intrinsic dimension estimate", cmd_dimension,
        partial(_add_dimension, k1=25),
        _flag("--variant", choices=["independent", "correlated"], default="correlated"))
    add("dimension-scan", "sliding-window dimension trace", cmd_dimension_scan,
        partial(_add_dimension, k1=5),
        _flag("--window", type=int, required=True),
        _flag("--stride", type=int, default=1))
    add("structure", "factor-graph cross-entropy comparisons", cmd_structure,
        _add_input,
        _flag("--models", required=True,
              help='JSON: {"models": {name: [[cols], ...]}, "pairs": [[a,b], ...]}'),
        _flag("--k", type=int, default=20),
        _flag("--budget", type=int, default=None),
        _flag("--alpha-frac", type=float, default=0.5),
        _add_detector)
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
        args.fn(args)
    except (ValueError, OSError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main():  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
