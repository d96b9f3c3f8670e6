"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload builds its inputs with knnfunc's own generators in ``setup``,
lists the operations of one round in ``operations`` and judges the outputs
of a round in ``check`` against computations made apart from the library
(``reference``, ``truths``) or against properties the estimators must have.
Every check returns a list of failure messages; an empty list is a pass.

Inputs whose estimates enter ``rmse`` are drawn from the fixed PANEL_SEED,
so ``rmse`` repeats exactly from run to run; every other input, the rows the
checks sample and, in monte-carlo and cli-suite, the order of the operations
in a round come from the run's ``--seed``.
"""

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import knnfunc as kf
import knnfunc.cli
import knnfunc.inference
import reference as ref
import truths

PANEL_SEED = 2024
ALPHA = 0.5  # Renyi order
MIX = {"d": 3, "a": 4.0, "b": 4.0, "eps": 0.2}
# the acceptance suite's live detector settings (criteria 7 and 1a)
SWEEP_DETECTOR = {"delta": 0.9, "lipschitz_L": 0.0, "eps0": 1.0, "pk_scale": 0.3}
CUBE_DETECTOR = {"delta": 0.9, "lipschitz_L": 0.0, "eps0": 1.0, "pk_scale": 0.02}


def sub_seed(seed, *tags):
    """A 62-bit seed derived from the run seed and tags."""
    text = ":".join(str(t) for t in (seed, *tags)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 2


def default_detector():
    """The fields of the library's default BoundaryConfig, the CLI default."""
    cfg = kf.BoundaryConfig()
    return {"delta": cfg.delta, "lipschitz_L": cfg.lipschitz_L,
            "eps0": cfg.eps0, "pk_scale": cfg.pk_scale}


def in_window(label, error, window):
    lo, hi = window
    if lo <= error <= hi:
        return []
    return [f"{label}: error {error:+.5f} outside [{lo:+.3f}, {hi:+.3f}]"]


def close(label, got, want, rel=1e-9):
    if abs(got - want) <= rel * max(1.0, abs(want)):
        return []
    return [f"{label}: {got!r} != recomputed {want!r}"]


@dataclass
class Op:
    """One timed call.  ``collect`` turns its return value into the output
    the checks read, outside the timed region."""

    label: str
    estimates: int
    call: Callable[[], object]
    collect: Callable[[object], object] = lambda result: result


class Workload:
    name = ""
    full_sizes = short_sizes = None

    def __init__(self, seed, out_dir, schema_dir, short=False):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.schema_dir = Path(schema_dir)
        self.sizes = self.short_sizes if short else self.full_sizes

    def ordered(self, ops):
        random.Random(self.seed).shuffle(ops)
        return ops


# -- large-estimate -----------------------------------------------------------

@dataclass(frozen=True)
class LargeSizes:
    samples: tuple  # (d, T)
    scale_T: int
    # allowed estimate - truth, per (d, functional)
    windows: dict


LARGE_FULL = LargeSizes(
    samples=((1, 30_000), (3, 100_000), (6, 100_000)),
    scale_T=4_000,
    windows={(1, "shannon"): (-0.03, 0.03), (1, "renyi"): (-0.08, 0.02),
             (3, "shannon"): (-0.03, 0.05), (3, "renyi"): (-0.04, 0.04),
             (6, "shannon"): (-0.03, 0.12), (6, "renyi"): (-0.03, 0.10)},
)
LARGE_SHORT = LargeSizes(
    samples=((1, 3_000), (3, 6_000), (6, 6_000)),
    scale_T=1_500,
    windows={(1, "shannon"): (-0.05, 0.05), (1, "renyi"): (-0.15, 0.03),
             (3, "shannon"): (-0.10, 0.10), (3, "renyi"): (-0.30, 0.02),
             (6, "shannon"): (-0.10, 0.25), (6, "renyi"): (-0.50, 0.05)},
)


@dataclass
class Sample:
    d: int
    data: object
    split: object
    k: int


class LargeEstimate(Workload):
    """Shannon BPI-BC (default detector) and Renyi(0.5) entropy (live
    detector) on one large mixture sample per dimension."""

    name = "large-estimate"
    full_sizes, short_sizes = LARGE_FULL, LARGE_SHORT

    def setup(self):
        self.samples = []
        for d, T in self.sizes.samples:
            data = kf.sample_beta_uniform_mixture(T, d, MIX["a"], MIX["b"], MIX["eps"], PANEL_SEED)
            sp = kf.split(data, 0.7, PANEL_SEED)
            self.samples.append(Sample(d, data, sp, kf.rate_matched_k(sp.n_ref, d)))
        small = kf.sample_beta_uniform_mixture(
            self.sizes.scale_T, 3, MIX["a"], MIX["b"], MIX["eps"], sub_seed(self.seed, "scale"))
        sp = kf.split(small, 0.7, self.seed)
        self.scale_sample = Sample(3, small, sp, kf.rate_matched_k(sp.n_ref, 3))
        # warm-up call; its result is also H(X) of the scaling check
        self.scale_base = kf.bpi_estimate_bc(small, sp, kf.shannon_functional(), self.scale_sample.k)

    def operations(self):
        ops = []
        for s in self.samples:
            ops.append(Op(f"shannon-d{s.d}", 1, lambda s=s: kf.bpi_estimate_bc(
                s.data, s.split, kf.shannon_functional(), s.k)))
            ops.append(Op(f"renyi-d{s.d}", 1, lambda s=s: kf.renyi_entropy(
                s.data, s.split, ALPHA, s.k, config=kf.BoundaryConfig(**SWEEP_DETECTOR))))
        # a fixed order: peak memory depends on which arrays are alive together
        return ops

    @staticmethod
    def signature(output):
        return (output.estimate, output.variance_estimate)

    @functools.cached_property
    def truth(self):
        """(Shannon, Renyi) entropies per dimension."""
        out = {}
        for d, _ in self.sizes.samples:
            if d <= 3:
                out[d] = truths.mixture_truths(d)
            else:
                (h, _), (h_renyi, _) = truths.mixture_truths_mc(d)
                out[d] = (h, h_renyi)
        return out

    def errors(self, outputs):
        tr = self.truth
        return [outputs[f"{f}-d{s.d}"].estimate - tr[s.d][i]
                for s in self.samples for i, f in enumerate(("shannon", "renyi"))]

    def check(self, outputs):
        failures = []
        tr = self.truth
        rng = np.random.default_rng(sub_seed(self.seed, "subset"))
        for s in self.samples:
            ev, rf = s.split.eval_points(s.data), s.split.ref_points(s.data)
            failures += check_rate_k(f"d={s.d}", s.k, s.split.n_ref, s.d)
            rows = rng.choice(len(ev), size=min(64, len(ev)), replace=False)
            lib = kf.knn_density(kf.build_index(rf), ev[rows], s.k).values
            failures += check_knn_density(f"d={s.d}", ev[rows], rf, s.k, lib)
            radii = ref.kth_distances(rf, ev, s.k)
            graph = ref.eval_graph(ev, ref.detector_scale(s.k, len(ev), len(rf)))
            for i, (f, cfg) in enumerate((("shannon", default_detector()),
                                          ("renyi", SWEEP_DETECTOR))):
                label = f"{f}-d{s.d}"
                report = outputs[label]
                lib_labels = kf.detect_boundary(ev, s.k, s.split.n_ref, kf.BoundaryConfig(**cfg))
                failures += check_recomputed(label, ev, graph, radii, s.k, len(rf), cfg, f,
                                             lib_labels, report.estimate)
                failures += in_window(label, report.estimate - tr[s.d][i],
                                      self.sizes.windows[(s.d, f)])
        failures += self.check_scaling()
        return failures

    def check_scaling(self):
        """H(sX + b) = H(X) + d log s on the same split."""
        s, shift = 2.5, np.array([-1.0, 3.0, 0.5])
        x = self.scale_sample
        moved = kf.Dataset(x.data.points * s + shift)
        got = kf.bpi_estimate_bc(moved, x.split, kf.shannon_functional(), x.k).estimate
        return check_scaling("scaling", self.scale_base.estimate, got, 3, s)


def check_rate_k(label, k, M, d):
    want = ref.rate_matched_k(M, d)
    return [] if k == want else [f"{label}: rate-matched k {k} != {want}"]


def check_knn_density(label, queries, refs, k, lib_values, rel=1e-12):
    """Library k-NN densities against brute-force k-th distances."""
    want = ref.knn_density(ref.brute_kth_distances(refs, queries, k), k, len(refs), refs.shape[1])
    err = float(np.max(np.abs(lib_values - want) / want))
    return [] if err <= rel else [f"{label}: knn_density off brute force by {err:.2e} relative"]


def check_recomputed(label, ev, graph, radii, k, M, detector, functional, lib_labels, reported):
    """Rebuild an estimate from own k-th distances into the M references,
    own reverse counts on ``graph`` (which must reproduce the library's
    labels), nearest-interior substitution and scipy's gamma functions."""
    interior, q = ref.boundary_labels(graph, ev.shape[1], k, detector)
    K = graph[1].shape[1] - 1
    failures = []
    lib_interior = np.zeros(len(ev), dtype=bool)
    lib_interior[lib_labels.interior] = True
    if lib_labels.K_used != K or not np.array_equal(interior, lib_interior):
        failures.append(f"{label}: boundary labels differ from reverse counts "
                        f"({int((interior != lib_interior).sum())} points, K {lib_labels.K_used} vs {K})")
    failures += close(f"{label} q", lib_labels.q_used, q)
    dens = ref.corrected_density(ev, radii, k, M, interior)
    if functional == "shannon":
        want = ref.shannon_bc(dens, k)
    else:
        want = ref.renyi_entropy_bc(dens, k, ALPHA)
    return failures + close(f"{label} estimate", reported, want)


def check_scaling(label, base, moved, d, s, tol=1e-9):
    want = base + d * math.log(s)
    return [] if abs(moved - want) <= tol else [
        f"{label}: H(sX+b) {moved!r} != H(X) + d log s = {want!r}"]


# -- monte-carlo --------------------------------------------------------------

@dataclass(frozen=True)
class TrialSizes:
    T: int
    trials: dict  # trials per monte_carlo call, per spec
    reruns: int
    # allowed mean - truth per spec
    windows: dict


# a mixture trial takes about 0.7 of a cube trial, so both calls last
# about as long and their median is not the gap between two clusters
TRIALS_FULL = TrialSizes(T=10_000, trials={"mixture": 42, "cube": 30}, reruns=3,
                         windows={"mixture": (-0.03, 0.03), "cube": (-0.03, 0.15)})
TRIALS_SHORT = TrialSizes(T=10_000, trials={"mixture": 3, "cube": 3}, reruns=1,
                          windows={"mixture": (-0.05, 0.05), "cube": (-0.03, 0.15)})


class MonteCarlo(Workload):
    """monte_carlo over criterion 7's mixture spec and criterion 1a's cube spec."""

    name = "monte-carlo"
    full_sizes, short_sizes = TRIALS_FULL, TRIALS_SHORT

    def setup(self):
        T = self.sizes.T
        self.specs = {
            "mixture": kf.TrialSpec(
                generator="beta_uniform_mixture", generator_params=dict(MIX), T=T,
                alpha_frac=0.7, functional_id="shannon", k_rule="fixed", k=17,
                boundary_config=kf.BoundaryConfig(**SWEEP_DETECTOR),
                base_seed=sub_seed(self.seed, "mixture")),
            "cube": kf.TrialSpec(
                generator="uniform", generator_params={"d": 3}, T=T,
                alpha_frac=0.7, functional_id="shannon", k_rule="rate",
                boundary_config=kf.BoundaryConfig(**CUBE_DETECTOR),
                base_seed=sub_seed(self.seed, "cube")),
        }
        knnfunc.inference.run_trial(self.specs["mixture"], 0)  # warm-up

    def operations(self):
        ops = [Op(name, n, lambda spec=self.specs[name], n=n: kf.monte_carlo(spec, n))
               for name, n in self.sizes.trials.items()]
        return self.ordered(ops)

    @staticmethod
    def signature(output):
        return output.estimates.tobytes()

    @functools.cached_property
    def truth(self):
        return {"mixture": truths.mixture_truths(3)[0], "cube": 0.0}

    def errors(self, outputs):
        tr = self.truth
        return [e - tr[name] for name in self.specs for e in outputs[name].estimates]

    def check(self, outputs):
        failures = []
        rng = np.random.default_rng(sub_seed(self.seed, "reruns"))
        M = int(round(0.7 * self.sizes.T))
        want_k = {"mixture": 17, "cube": ref.rate_matched_k(M, 3)}
        for name, spec in self.specs.items():
            res = outputs[name]
            if not np.all(res.ks == want_k[name]):
                failures.append(f"{name}: trial k {sorted(set(res.ks.tolist()))} != {want_k[name]}")
            picks = rng.choice(res.estimates.size, size=self.sizes.reruns, replace=False)
            alone = [knnfunc.inference.run_trial(spec, int(t)).estimate for t in picks]
            failures += check_reruns(name, res.estimates[picks], alone)
            failures += in_window(f"{name} mean", float(np.mean(res.estimates)) - self.truth[name],
                                  self.sizes.windows[name])
        return failures


def check_reruns(label, in_batch, alone):
    bad = [i for i, (a, b) in enumerate(zip(in_batch, alone)) if a != b]
    return [f"{label}: trials rerun alone differ: {[(in_batch[i], alone[i]) for i in bad]}"] if bad else []


# -- cli-suite ----------------------------------------------------------------

@dataclass(frozen=True)
class CliSizes:
    mix_T: int
    blocks_T: int
    dim_T: int
    scan_windows: int
    window: int
    stride: int
    tune_M: int
    scan_share: float  # least share of scan windows with d_rounded = 2
    windows: dict  # allowed estimate - truth


CLI_FULL = CliSizes(mix_T=50_000, blocks_T=50_000, dim_T=20_000, scan_windows=308,
                    window=320, stride=64, tune_M=7000, scan_share=0.9,
                    windows={"entropy": (-0.03, 0.06), "mi-within": (-0.03, 0.03),
                             "mi-across": (-0.03, 0.03)})
CLI_SHORT = CliSizes(mix_T=6_000, blocks_T=6_000, dim_T=4_000, scan_windows=20,
                     window=320, stride=64, tune_M=7000, scan_share=0.8,
                     windows={"entropy": (-0.06, 0.10), "mi-within": (-0.06, 0.06),
                              "mi-across": (-0.06, 0.06)})

SCHEMAS = {"entropy": "estimate_report", "mi-within": "estimate_report",
           "mi-across": "estimate_report", "dimension": "dimension_result",
           "structure": "model_comparison"}
# the tune subcommand has no schema under docs/schemas; these are its keys
TUNE_KEYS = ("schema_version", "seed", "mode", "c1", "c2", "c3", "c4", "c5",
             "k_opt", "k_rate_matched", "M")
TRUE_MODEL = [[0, 1], [2], [3]]
FALSE_MODEL = [[0, 2], [1], [3]]
TUNE_N_MC = 200_000


def write_csv(path, data):
    np.savetxt(path, data.points, fmt="%.17g", delimiter=",")


class CliSuite(Workload):
    """knnfunc.cli.run in-process on CSV files written during setup."""

    name = "cli-suite"
    full_sizes, short_sizes = CLI_FULL, CLI_SHORT

    def path(self, name):
        return str(self.out_dir / name)

    def setup(self):
        z = self.sizes
        self.out_dir.mkdir(parents=True, exist_ok=True)
        scan_T = z.window + z.stride * (z.scan_windows - 1)
        write_csv(self.path("mixture.csv"), kf.sample_beta_uniform_mixture(
            z.mix_T, 3, MIX["a"], MIX["b"], MIX["eps"], PANEL_SEED))
        write_csv(self.path("blocks.csv"), kf.sample_block_beta_mixture(z.blocks_T, [2, 1, 1], PANEL_SEED))
        write_csv(self.path("manifold3.csv"), kf.sample_projected_manifold(z.dim_T, 3, 8, self.seed))
        write_csv(self.path("manifold2.csv"), kf.sample_projected_manifold(scan_T, 2, 6, self.seed))
        write_csv(self.path("warmup.csv"), kf.sample_beta_uniform_mixture(
            2_000, 3, MIX["a"], MIX["b"], MIX["eps"], self.seed))
        with open(self.path("models.json"), "w", encoding="utf-8") as fh:
            json.dump({"models": {"true": TRUE_MODEL, "false": FALSE_MODEL},
                       "pairs": [["true", "false"]]}, fh)
        rc = knnfunc.cli.run(["entropy", "--input", self.path("warmup.csv"),
                              "-o", self.path("warmup.json")])
        if rc != 0:
            raise RuntimeError(f"warm-up entropy command exited {rc}")

    def commands(self):
        z, p, seed = self.sizes, self.path, str(self.seed)
        panel = str(PANEL_SEED)
        return {
            "entropy": ["entropy", "--input", p("mixture.csv"), "--seed", panel],
            "mi-within": ["mi", "--input", p("blocks.csv"), "--x-cols", "0",
                          "--y-cols", "1", "--seed", panel],
            "mi-across": ["mi", "--input", p("blocks.csv"), "--x-cols", "0",
                          "--y-cols", "2", "--seed", panel],
            "dimension": ["dimension", "--input", p("manifold3.csv"), "--seed", seed],
            "dimension-scan": ["dimension-scan", "--input", p("manifold2.csv"),
                               "--window", str(z.window), "--stride", str(z.stride),
                               "--seed", seed],
            "structure": ["structure", "--input", p("blocks.csv"),
                          "--models", p("models.json"), "--seed", seed],
            "tune": ["tune", "--density", "beta-uniform", "--d", "3",
                     "--M", str(z.tune_M), "--n-mc", str(TUNE_N_MC), "--seed", seed],
        }

    def operations(self):
        ops = []
        for label, argv in self.commands().items():
            out = self.path(f"{label}.out")
            ops.append(Op(label, 1, lambda argv=argv + ["-o", out]: knnfunc.cli.run(argv),
                          lambda rc, out=out: read_cli_output(rc, out)))
        return self.ordered(ops)

    @staticmethod
    def signature(output):
        return json.dumps(output, sort_keys=True)

    @functools.cached_property
    def truth(self):
        return {"entropy": truths.mixture_truths(3)[0],
                "mi-within": truths.block_mi_within(), "mi-across": 0.0}

    def errors(self, outputs):
        return [outputs[name]["payload"]["estimate"] - t for name, t in self.truth.items()
                if "estimate" in outputs[name].get("payload", {})]

    def check(self, outputs):
        failures = []
        for label, out in outputs.items():
            if out["rc"] != 0:
                failures.append(f"{label}: exit code {out['rc']}")
        if failures:
            return failures
        for label, schema in SCHEMAS.items():
            failures += check_schema(label, outputs[label]["payload"], self.schema_dir / f"{schema}.schema.json")
        failures += check_keys("tune", outputs["tune"]["payload"], TUNE_KEYS)
        panel = {"entropy", "mi-within", "mi-across"}
        for label, out in outputs.items():
            if label != "dimension-scan":
                want = PANEL_SEED if label in panel else self.seed
                if out["payload"].get("seed") != want:
                    failures.append(f"{label}: seed {out['payload'].get('seed')!r} not echoed as {want}")
        for label, truth in self.truth.items():
            est = outputs[label]["payload"].get("estimate")
            if isinstance(est, (int, float)):
                failures += in_window(label, est - truth, self.sizes.windows[label])
        failures += check_dimension(outputs["dimension"]["payload"], 3)
        failures += check_scan(outputs["dimension-scan"]["text"], self.sizes.scan_windows,
                               2, self.sizes.scan_share)
        failures += check_structure(outputs["structure"]["payload"], "true")
        failures += check_tune(outputs["tune"]["payload"], 3, self.sizes.tune_M, TUNE_N_MC)
        return failures


def read_cli_output(rc, path):
    out = {"rc": rc}
    if rc == 0:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        out["text"] = text
        if not path.endswith("dimension-scan.out"):
            out["payload"] = json.loads(text)
    return out


def check_schema(label, payload, schema_path):
    import jsonschema

    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(payload), key=str)
    return [f"{label}: schema {schema_path.name}: {e.message}" for e in errors]


def check_keys(label, payload, keys):
    missing = [k for k in keys if k not in payload]
    return [f"{label}: missing keys {missing}"] if missing else []


def check_dimension(payload, want):
    got = payload.get("d_rounded")
    return [] if got == want else [f"dimension: d_rounded {got!r} != {want}"]


def check_scan(text, n_windows, want, share):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "window_start,d_hat,d_rounded":
        return ["dimension-scan: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n_windows:
        return [f"dimension-scan: {len(rows)} windows != {n_windows}"]
    hits = sum(1 for r in rows if r[2] == str(want))
    if hits < share * n_windows:
        return [f"dimension-scan: {hits}/{n_windows} windows at d={want}, need share {share}"]
    return []


def check_structure(payload, want):
    comparisons = payload.get("comparisons") or [{}]
    got = comparisons[0].get("decision")
    return [] if got == want else [f"structure: decision {got!r} != {want!r}"]


def check_tune(payload, d, M, n_mc, n_se=5.0):
    """k_opt from the JSON's own c1, c2; c1 within Monte Carlo error of quadrature."""
    failures = check_keys("tune", payload, ("c1", "c2", "k_opt"))
    if failures:
        return failures
    c1, c2 = payload["c1"], payload["c2"]
    want = int(round((c2 / abs(c1)) ** (d / (d + 2)) * M ** (2 / (d + 2))))
    if payload["k_opt"] != want:
        failures.append(f"tune: k_opt {payload['k_opt']} != (c2/|c1|)^(d/(d+2)) M^(2/(d+2)) = {want}")
    c1_quad, _, sd, _ = truths.shannon_constants_d3(M=M)
    if abs(c1 - c1_quad) > n_se * sd / math.sqrt(n_mc):
        failures.append(f"tune: c1 {c1:.5f} vs quadrature {c1_quad:.5f} "
                        f"(> {n_se} se = {n_se * sd / math.sqrt(n_mc):.4f})")
    return failures


WORKLOADS = {w.name: w for w in (LargeEstimate, MonteCarlo, CliSuite)}
