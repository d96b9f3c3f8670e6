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
import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import knnfunc.knn
from knnfunc import (
    BoundaryConfig,
    Dataset,
    TheoryConstants,
    TrialSpec,
    bpi_estimate,
    bpi_estimate_bc,
    build_index,
    detect_boundary,
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
    shannon_functional,
    split,
)
from knnfunc.cli import run

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

SWEEP = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.3)
CUBE = BoundaryConfig(delta=0.9, lipschitz_L=0.0, eps0=1.0, pk_scale=0.02)
CONFIGS = {"none": None, "sweep": SWEEP, "cube": CUBE, "auto": BoundaryConfig()}
CONSTANTS = TheoryConstants(c1=0.4, c2=-0.3, c3=0.0, c4=1.1, c5=0.7, mode="oracle")
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


def cli_cases(out, workdir):
    """The bytes the density, entropy, renyi, mi, tune and experiment
    commands write."""
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
        "experiment": ["experiment", "--spec", str(spec), "--trials", "5",
                       "--trials-csv", str(trials)],
    }
    for name, argv in commands.items():
        path = workdir / f"{name}.out"
        assert run(argv + ["-o", str(path)]) == 0, name
        out[f"cli/{name}"] = digest(path.read_bytes())
    out["cli/experiment:trials-csv"] = digest(trials.read_bytes())


def panel(workdir):
    """Every case of the panel, by name."""
    out = {}
    knn_cases(out)
    density_cases(out)
    error_cases(out)
    monte_carlo_cases(out)
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
