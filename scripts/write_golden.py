#!/usr/bin/env python3
"""Write tests/golden.json: digests of a fixed panel of library outputs.

Each output is stored as the sha256 of its bytes, with its dtype and
shape; each case that raises ValueError is stored as its exact message.
tests/test_golden.py recomputes the panel and compares, so a change meant
to keep every number passes it with the file unchanged.  A change meant to
move a number reruns this script and commits the new file; the diff then
names each output that moved.

    PYTHONPATH=src python scripts/write_golden.py [--output tests/golden.json]

The k-NN layer is exact, so its digests hold on any CPU.  Outputs that go
through numpy's SIMD log or power may differ by an ulp on another CPU;
such a mismatch is a finding about the determinism invariant, to be
recorded, not a reason to compare more loosely.
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import knnfunc.knn
from knnfunc import (
    BoundaryConfig,
    Dataset,
    Factorization,
    TheoryConstants,
    TrialSpec,
    anomaly_scan,
    beta_uniform_mixture_density,
    bpi_estimate,
    bpi_estimate_bc,
    build_index,
    count_reverse_neighbors,
    compare_models,
    constants_oracle,
    detect_boundary,
    estimate_dimension,
    knn_density,
    knn_query,
    knn_radii,
    monte_carlo,
    mutual_information,
    rate_matched_k,
    renyi_entropy,
    renyi_functional,
    sample_beta_uniform_mixture,
    sample_block_beta_mixture,
    sample_projected_manifold,
    shannon_functional,
    split,
    true_functional,
    uniform_density,
)
from knnfunc.cli import run

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

SWEEP = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
CUBE = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.02)
CONFIGS = {"none": None, "sweep": SWEEP, "cube": CUBE, "auto": BoundaryConfig()}
CONSTANTS = TheoryConstants(c1=0.4, c2=-0.3, c3=0.0, c4=1.1, c5=0.7, mode="oracle")
# wide detector graphs: at N = 900, k = 100 and M = 2,100, K + 1 = 43
WIDE = {"cube": CUBE, "edge": BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.0),
        "eps0-auto": BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0="auto", pk_scale=0.1),
        "L-auto": BoundaryConfig(delta=0.9, lipschitz_L="auto", eps0=1e6, pk_scale=0.02),
        "auto": BoundaryConfig()}
DETECTOR_FLAGS = ["--lipschitz", "0", "--eps0", "1", "--delta", "0.9", "--pk-scale", "0.3"]


def digest(value):
    """{"sha256", "dtype", "shape"} of an array, or of a bytes object."""
    if isinstance(value, bytes):
        value = np.frombuffer(value, dtype=np.uint8)
    a = np.ascontiguousarray(value)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(),
            "dtype": a.dtype.str, "shape": list(a.shape)}


def _record(out, name, call):
    """out[name]: the digest of call()'s outputs, a name per output, or
    the message of the ValueError it raises."""
    try:
        values = call()
    except ValueError as exc:
        out[name] = {"error": str(exc)}
        return
    for part, value in values.items():
        out[f"{name}:{part}" if part else name] = digest(value)


def _report(r):
    ci = r.ci[:2] if r.ci is not None else ()
    return {"": np.array([r.estimate, r.variance_estimate, *ci, r.k, r.N, r.M,
                          r.boundary_corrected], dtype=np.float64)}


def _neighbors(r):
    return {"distances": r.distances, "indices": r.indices}


def _labels(labels):
    return {"interior": labels.interior, "boundary": labels.boundary,
            "nearest_interior": labels.nearest_interior,
            "scalars": np.array([labels.threshold_used, labels.K_used, labels.q_used])}


def _index(refs, zstored):
    gate = 0 if zstored else knnfunc.knn._ZORDER_MIN_REFS
    with mock.patch.object(knnfunc.knn, "_ZORDER_MIN_REFS", gate):
        return build_index(refs)


def knn_cases(out):
    """knn_query and knn_radii at d = 1, 2, 3, 6 into input-order and
    Z-stored indices, on uniform and tied-grid points."""
    for d in (1, 2, 3, 6):
        rng = np.random.default_rng(100 + d)
        grid = rng.integers(0, 3, size=(400, d)).astype(float)
        for kind, refs, queries in (
            ("uniform", rng.random((300, d)), np.vstack([rng.random((40, d)), np.zeros((1, d))])),
            ("grid", grid[:300], grid[300:]),
        ):
            queries = np.vstack([queries, refs[:5]])  # on-point queries
            for zstored in (False, True):
                index = _index(refs, zstored)
                for k in (1, 7, 300):
                    name = f"knn/{kind}/d{d}/{'z' if zstored else 'input'}/k{k}"
                    _record(out, f"{name}/query", lambda: _neighbors(knn_query(index, queries, k)))
                    _record(out, f"{name}/radii", lambda: {"": knn_radii(index, queries, k)})


def density_cases(out):
    """detect_boundary, the density and the single-sample estimators under
    every config, on the Beta(4,4)/uniform mixture and the uniform cube."""
    for d, T in ((1, 3000), (2, 3000), (3, 3000), (6, 3000), (3, 12000)):
        for kind in ("mixture", "cube"):
            seed = 7 * d + T
            if kind == "mixture":
                data = sample_beta_uniform_mixture(T, d, 4.0, 4.0, 0.2, seed)
            else:
                data = Dataset(np.random.default_rng(seed).random((T, d)))
            sp = split(data, 0.7, seed)
            ev, k = sp.eval_points(data), rate_matched_k(sp.n_ref, d)
            index = build_index(sp.ref_points(data))
            for cname, config in CONFIGS.items():
                name = f"density/{kind}/d{d}/T{T}/{cname}"
                if config is not None:
                    _record(out, f"{name}/labels",
                            lambda: _labels(detect_boundary(ev, k, sp.n_ref, config)))
                _record(out, f"{name}/values",
                        lambda: {"": knn_density(index, ev, k, config).values})
                for est, call in (
                    ("bpi", lambda: bpi_estimate(data, sp, shannon_functional(), k, config, 0.95)),
                    ("bpi_bc", lambda: bpi_estimate_bc(data, sp, shannon_functional(), k,
                                                       config, 0.9)),
                    ("bpi_bc_renyi1.5", lambda: bpi_estimate_bc(data, sp, renyi_functional(1.5),
                                                                k, config)),
                    ("renyi0.5", lambda: renyi_entropy(data, sp, 0.5, k, config, 0.95)),
                ):
                    _record(out, f"{name}/{est}", lambda: _report(call()))
    data = sample_block_beta_mixture(4000, [2, 1, 1], 11)
    sp = split(data, 0.7, 11)
    for cname, config in CONFIGS.items():
        for x, y in (([0, 1], [2]), ([0], [3])):
            _record(out, f"mi/{x}-{y}/{cname}",
                    lambda: _report(mutual_information(data, sp, x, y, 20, config, 0.95)))


def wide_detector_cases(out):
    """detect_boundary with K + 1 = 43, on the mixture and the cube at
    d = 1, 2, 3, 6, in input-order and Z-stored evaluation indices: on the
    mixture some boundary points have no interior point among their 24
    nearest.  count_reverse_neighbors at K = 30 and 60 on uniform and
    tied-grid points."""
    for d in (1, 2, 3, 6):
        for kind in ("mixture", "cube"):
            if kind == "mixture":
                ev = sample_beta_uniform_mixture(900, d, 4.0, 4.0, 0.2, 1000 + d).points
            else:
                ev = np.random.default_rng(1000 + d).random((900, d))
            for zstored in (False, True) if d > 1 else (False,):
                gate = 0 if zstored else knnfunc.knn._ZORDER_MIN_REFS
                for cname, config in WIDE.items():
                    name = f"detect/{kind}/d{d}/{'z' if zstored else 'input'}/{cname}"
                    with mock.patch.object(knnfunc.knn, "_ZORDER_MIN_REFS", gate):
                        _record(out, name, lambda: _labels(detect_boundary(ev, 100, 2100, config)))
        rng = np.random.default_rng(200 + d)
        for kind, points in (("uniform", rng.random((600, d))),
                             ("grid", rng.integers(0, 4, size=(600, d)).astype(float))):
            for zstored in (False, True) if d > 1 else (False,):
                gate = 0 if zstored else knnfunc.knn._ZORDER_MIN_REFS
                for K in (30, 60):
                    name = f"reverse/{kind}/d{d}/{'z' if zstored else 'input'}/K{K}"
                    with mock.patch.object(knnfunc.knn, "_ZORDER_MIN_REFS", gate):
                        _record(out, name, lambda: {"": count_reverse_neighbors(points, K)})


def window_detector_cases(out):
    """detect_boundary and count_reverse_neighbors at d = 1 on an integer
    grid (repeated values, and points equally far on either side of a
    value), on continuous values with every fifth one repeated, and on
    continuous values: detection at K + 1 = 301 and 49, reverse counts at
    K = 1, 40, 300 and N - 1."""
    rng = np.random.default_rng(300)
    uniform = rng.random((1200, 1))
    repeated = uniform.copy()
    repeated[::5] = repeated[1::5]
    grid = rng.integers(0, 250, size=(1200, 1)).astype(float)
    for kind, points in (("grid", grid), ("repeated", repeated), ("uniform", uniform)):
        for cname, config in (("sweep", SWEEP), ("edge", WIDE["edge"])):
            for k, M in ((100, 400), (12, 300)):
                _record(out, f"detect1d/{kind}/k{k}/M{M}/{cname}",
                        lambda: _labels(detect_boundary(points, k, M, config)))
        for K in (1, 40, 300, len(points) - 1):
            _record(out, f"reverse1d/{kind}/K{K}",
                    lambda: {"": count_reverse_neighbors(points, K)})


def error_cases(out):
    """Duplicates, k = M, k > M, k < 3 and identical evaluation points,
    with and without a detector."""
    rng = np.random.default_rng(5)
    refs = rng.random((200, 2))
    refs[:6] = 0.5
    queries = rng.random((60, 2))
    queries[[3, 40]] = 0.5
    index = build_index(refs)
    same = np.full((30, 2), 0.25)
    for cname in ("none", "sweep"):
        config = CONFIGS[cname]
        for case, q, k in (("duplicates", queries, 5), ("k_eq_M", rng.random((60, 2)), 200),
                           ("k_gt_M", queries, 201), ("k2", queries, 2),
                           ("identical", same, 5)):
            _record(out, f"errors/{case}/{cname}",
                    lambda: {"": knn_density(index, q, k, config).values})
        data = Dataset(np.vstack([np.full((8, 2), 0.5), rng.random((300, 2))]))
        sp = split(data, 0.7, 3)
        for est in (bpi_estimate, bpi_estimate_bc):
            _record(out, f"errors/{est.__name__}/duplicates/{cname}",
                    lambda: _report(est(data, sp, shannon_functional(), 5, config)))
            _record(out, f"errors/{est.__name__}/k_eq_M/{cname}",
                    lambda: _report(est(data, sp, shannon_functional(), sp.n_ref, config)))


def monte_carlo_cases(out):
    """monte_carlo with oracle constants and a truth, with a truth alone,
    and with neither."""
    base = dict(generator="beta_uniform_mixture",
                generator_params={"d": 3, "a": 4.0, "b": 4.0, "eps": 0.2},
                T=2000, alpha_frac=0.7, base_seed=99)
    specs = {
        "shannon-constants-sweep": TrialSpec(functional_id="shannon", constants=CONSTANTS,
                                             truth=-0.1, boundary_config=SWEEP, **base),
        "shannon-constants": TrialSpec(functional_id="shannon", constants=CONSTANTS,
                                       truth=-0.1, ci_level=0.5, **base),
        "shannon-truth": TrialSpec(functional_id="shannon", truth=-0.1, **base),
        "renyi-plain": TrialSpec(functional_id="renyi", alpha=0.5, k_rule="fixed", k=9,
                                 bias_correct=False, boundary_config=SWEEP, **base),
    }
    for name, spec in specs.items():
        def call(spec=spec):
            res = monte_carlo(spec, 6)
            parts = {"estimates": res.estimates, "ks": res.ks}
            if res.coverage is not None:
                parts["coverage"] = res.coverage
            return parts
        _record(out, f"monte_carlo/{name}", call)


def truth_dimension_structure_cases(out):
    """true_functional for Shannon and Renyi(0.5) on the mixture, both
    estimate_dimension variants and anomaly_scan on a 2-d manifold in 3-d,
    and compare_models on the block mixture, with and without a detector,
    in both argument orders."""
    density = beta_uniform_mixture_density(3, 4.0, 4.0, 0.2)
    for name, functional in (("shannon", shannon_functional()), ("renyi0.5", renyi_functional(0.5))):
        _record(out, f"truth/{name}",
                lambda: {"": np.array(true_functional(density, functional, 10_000, 8))})
    data = sample_projected_manifold(2000, 2, 3, 9)
    for variant in ("independent", "correlated"):
        _record(out, f"dimension/{variant}", lambda: {"": _dimension(
            estimate_dimension(data, 15, variant=variant, seed=9))})
    series = sample_projected_manifold(1200, 2, 4, 10)
    _record(out, "dimension/anomaly_scan", lambda: {"": np.array(
        [[start, *_dimension(est)] if est is not None else [start, np.nan, 0, 0, 0]
         for start, est in anomaly_scan(series, 320, 40, 5, seed=10)])})
    blocks = sample_block_beta_mixture(4000, [2, 1, 1], 12)
    models = (Factorization(((0, 1), (2,), (3,)), "true"),
              Factorization(((0,), (1, 2), (3,)), "false"))
    for cname in ("none", "sweep"):
        for order, (m_n, m_l) in (("nl", models), ("ln", models[::-1])):
            def call(m_n=m_n, m_l=m_l, config=CONFIGS[cname]):
                c = compare_models(blocks, m_n, m_l, 12, budget=3600, config=config, seed=12)
                return {"statistic": np.array([c.statistic]),
                        "labels": f"{c.decision},{c.model_n},{c.model_l}".encode()}
            _record(out, f"structure/{cname}/{order}", call)
    _record(out, "structure/infeasible", lambda: compare_models(blocks, *models, 12, budget=40))


def oracle_cases(out):
    """constants_oracle on the mixture at d = 1, 3 and 6 and on the uniform
    cube at d = 4, for Shannon and Renyi(0.5), at n_mc = 100,001 (no whole
    number of row blocks); true_functional on the mixture at d = 6 and on
    the cube."""
    densities = {"mixture/d1": beta_uniform_mixture_density(1, 2.0, 5.0, 0.1),
                 "mixture/d3": beta_uniform_mixture_density(3, 4.0, 4.0, 0.2),
                 "mixture/d6": beta_uniform_mixture_density(6, 2.0, 3.0, 0.3),
                 "cube/d4": uniform_density(4)}
    functionals = {"shannon": shannon_functional(), "renyi0.5": renyi_functional(0.5)}
    for dname, density in densities.items():
        for fname, functional in functionals.items():
            def call(density=density, functional=functional):
                c = constants_oracle(density, functional, 100_001, 13)
                return {"": np.array([c.c1, c.c2, c.c3, c.c4, c.c5])}
            _record(out, f"oracle/{dname}/{fname}", call)
            if dname in ("mixture/d6", "cube/d4"):
                _record(out, f"truth/{dname}/{fname}", lambda: {"": np.array(
                    true_functional(density, functional, 20_001, 14))})


def _dimension(est):
    return np.array([est.d_hat, est.d_rounded, est.alpha_hat, est.variance_estimate])


def cli_cases(out, workdir):
    """The bytes the density, entropy, renyi, mi, tune, experiment,
    dimension and structure commands write, and the error tune prints for
    a pdf that is not finite within a difference step of a draw."""
    workdir = Path(workdir)
    mix, blocks = workdir / "mix.csv", workdir / "blocks.csv"
    assert run(["generate", "--dist", "beta-uniform", "--T", "3000", "--d", "3",
                "--seed", "1", "-o", str(mix)]) == 0
    np.savetxt(blocks, sample_block_beta_mixture(3000, [2, 1, 1], 2).points,
               fmt="%.17g", delimiter=",")
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({
        "generator": "beta_uniform_mixture",
        "generator_params": {"d": 2, "a": 4.0, "b": 4.0, "eps": 0.2},
        "T": 1500, "alpha_frac": 0.7, "functional_id": "shannon", "truth": -0.05,
        "base_seed": 5, "boundary_config": {"delta": 0.9, "lipschitz_L": 0.0,
                                            "eps0": 1.0, "pk_scale": 0.3},
        "constants": {"c1": 0.4, "c2": -0.3, "c3": 0.0, "c4": 1.1, "c5": 0.7,
                      "mode": "oracle"},
    }))
    trials = workdir / "trials.csv"
    mani, models = workdir / "mani.csv", workdir / "models.json"
    assert run(["generate", "--dist", "manifold", "--T", "2000", "--intrinsic-d", "2",
                "--ambient-D", "3", "--seed", "8", "-o", str(mani)]) == 0
    models.write_text(json.dumps({"models": {"a": [[0, 1], [2], [3]], "b": [[0], [1, 2], [3]],
                                             "c": [[0, 1, 2, 3]]}}))
    commands = {
        "density": ["density", "--input", str(mix), "--seed", "3"],
        "density-detector": ["density", "--input", str(mix), "--seed", "3", *DETECTOR_FLAGS],
        "entropy": ["entropy", "--input", str(mix), "--seed", "4", *DETECTOR_FLAGS],
        "entropy-plain": ["entropy", "--input", str(mix), "--seed", "4", "--k", "12",
                          "--no-bias-correction"],
        "renyi": ["renyi", "--input", str(mix), "--seed", "5", "--alpha", "0.5",
                  *DETECTOR_FLAGS],
        "mi": ["mi", "--input", str(blocks), "--x-cols", "0,1", "--y-cols", "2",
               "--seed", "6", *DETECTOR_FLAGS],
        "tune": ["tune", "--density", "beta-uniform", "--d", "2", "--M", "2000",
                 "--n-mc", "100000", "--seed", "7"],
        "tune-d6": ["tune", "--density", "beta-uniform", "--d", "6", "--M", "2000",
                    "--n-mc", "100001", "--seed", "7"],
        "tune-renyi": ["tune", "--density", "beta-uniform", "--d", "3", "--M", "2000",
                       "--functional", "renyi", "--alpha", "0.5", "--n-mc", "100001",
                       "--seed", "7"],
        "experiment": ["experiment", "--spec", str(spec), "--trials", "5",
                       "--trials-csv", str(trials)],
        "dimension": ["dimension", "--input", str(mani), "--k1", "15", "--seed", "8"],
        "dimension-independent": ["dimension", "--input", str(mani), "--k1", "15",
                                  "--variant", "independent", "--seed", "8"],
        "structure": ["structure", "--input", str(blocks), "--models", str(models),
                      "--k", "12", "--seed", "9"],
        "structure-detector": ["structure", "--input", str(blocks), "--models", str(models),
                               "--k", "12", "--seed", "9", *DETECTOR_FLAGS],
    }
    for name, argv in commands.items():
        path = workdir / f"{name}.out"
        assert run(argv + ["-o", str(path)]) == 0, name
        out[f"cli/{name}"] = digest(path.read_bytes())
    out["cli/experiment:trials-csv"] = digest(trials.read_bytes())
    # with a Beta shape of 1.5 the pdf is NaN outside the cube, so a draw
    # within one difference step of a face stops tune
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = run(["tune", "--density", "beta-uniform", "--a", "1.5", "--d", "6", "--M", "1000",
                  "--n-mc", "300001", "--seed", "4"])
    assert rc == 1, rc
    out["cli/tune-nonfinite"] = {"error": stderr.getvalue()}


def panel(workdir):
    """Every case of the panel, by name."""
    out = {}
    knn_cases(out)
    density_cases(out)
    wide_detector_cases(out)
    window_detector_cases(out)
    error_cases(out)
    monte_carlo_cases(out)
    truth_dimension_structure_cases(out)
    oracle_cases(out)
    cli_cases(out, workdir)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        out = panel(workdir)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} entries to {args.output}")


if __name__ == "__main__":
    main()
