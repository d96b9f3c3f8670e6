"""Tests of the benchmark itself: short runs of every workload, and proof
that every check rejects a corrupted output.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knnfunc as kf
import reference as ref
import truths
import workloads as wl
from run import run_round
from tracer import LAYERS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMAS = ROOT / "docs" / "schemas"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# the default detector degenerates on these inputs and says so each call
pytestmark = pytest.mark.filterwarnings("ignore:q\\(K,N\\) = .* >= 1:RuntimeWarning")


def run_short(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_is_correct_and_complete(workload, trace):
    result = run_short(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        spans = (HERE / "out" / f"trace-{workload}-seed5.jsonl").read_text().splitlines()
        first = json.loads(spans[0])
        assert set(first) == {"id", "name", "layer", "start", "end", "parent", "call", "info"}
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- truths -------------------------------------------------------------------

def oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles as module
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return module


def test_quadrature_matches_the_test_suite_oracles():
    o = oracles()
    h, h_renyi = truths.mixture_truths(3)
    assert h == pytest.approx(o.H_SHANNON_MIX, abs=1e-9)
    assert h_renyi == pytest.approx(2 * math.log(o.I_RENYI05_MIX), abs=1e-9)
    assert truths.block_mi_within() == pytest.approx(o.MI_PAIR_BLOCKMIX, abs=1e-5)
    c1, c2, _, k_opt = truths.shannon_constants_d3()
    assert c1 == pytest.approx(o.C1_SHANNON_MIX, abs=1e-5)
    assert round(k_opt) == 17


def test_monte_carlo_truth_agrees_with_quadrature_at_d3():
    (h, se), (h_renyi, se_renyi) = truths.mixture_truths_mc(3, draws=400_000)
    want_h, want_renyi = truths.mixture_truths(3)
    assert abs(h - want_h) < 4 * se
    assert abs(h_renyi - want_renyi) < 4 * se_renyi


def test_one_dimensional_quadrature_is_converged():
    coarse, fine = truths.mixture_truths(1, n=100), truths.mixture_truths(1, n=400)
    assert coarse == pytest.approx(fine, abs=1e-10)


# -- workload outputs for the corruption tests ---------------------------------

def short_outputs(cls, tmp_path_factory):
    w = cls(5, tmp_path_factory.mktemp(cls.name), SCHEMAS, short=True)
    w.setup()
    rnd = run_round(w.operations())
    assert rnd.failed == 0
    return w, rnd.outputs


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    return short_outputs(wl.LargeEstimate, tmp_path_factory)


@pytest.fixture(scope="module")
def trials(tmp_path_factory):
    return short_outputs(wl.MonteCarlo, tmp_path_factory)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return short_outputs(wl.CliSuite, tmp_path_factory)


def with_estimate(outputs, label, estimate):
    out = dict(outputs)
    out[label] = dataclasses.replace(outputs[label], estimate=estimate)
    return out


def rejects(failures, label):
    return any(f.startswith(label) for f in failures)


def test_large_estimate_passes_uncorrupted(large):
    w, outputs = large
    assert w.check(outputs) == []


@pytest.mark.parametrize("label", ["shannon-d3", "renyi-d1", "shannon-d6"])
def test_large_estimate_rejects_a_sign_flip(large, label):
    w, outputs = large
    failures = w.check(with_estimate(outputs, label, -outputs[label].estimate))
    assert rejects(failures, f"{label} estimate") and rejects(failures, f"{label}: error")


@pytest.mark.parametrize("label", ["shannon-d3", "shannon-d6"])
def test_large_estimate_rejects_a_factor_of_d(large, label):
    w, outputs = large
    d = int(label[-1])
    failures = w.check(with_estimate(outputs, label, d * outputs[label].estimate))
    assert rejects(failures, f"{label}: error")


def test_large_estimate_rejects_a_dropped_g2(large):
    w, outputs = large
    s = w.samples[1]
    plain = outputs["shannon-d3"].estimate + ref.shannon_g2(s.k)
    assert rejects(w.check(with_estimate(outputs, "shannon-d3", plain)), "shannon-d3 estimate")


def test_large_estimate_rejects_radii_at_k_minus_1(large):
    w, outputs = large
    s = w.samples[1]
    ev, rf = s.split.eval_points(s.data), s.split.ref_points(s.data)
    rows = np.arange(32)
    good = ref.knn_density(ref.kth_distances(rf, ev[rows], s.k), s.k, len(rf), 3)
    short = ref.knn_density(ref.kth_distances(rf, ev[rows], s.k - 1), s.k, len(rf), 3)
    assert wl.check_knn_density("d=3", ev[rows], rf, s.k, good) == []
    assert wl.check_knn_density("d=3", ev[rows], rf, s.k, short)
    # an estimate built on (k-1)-th distances fails the recomputation
    radii = ref.kth_distances(rf, ev, s.k - 1)
    interior = np.ones(len(ev), dtype=bool)
    wrong = ref.shannon_bc(ref.corrected_density(ev, radii, s.k, len(rf), interior), s.k)
    assert rejects(w.check(with_estimate(outputs, "shannon-d3", wrong)), "shannon-d3 estimate")


def test_large_estimate_rejects_a_wrong_truth(large):
    w, outputs = large
    tr = w.truth
    # the d = 3 truth reported at d = 6, and the Shannon truth used for Renyi
    assert wl.in_window("x", outputs["shannon-d6"].estimate - tr[3][0], w.sizes.windows[(6, "shannon")])
    assert wl.in_window("x", outputs["renyi-d3"].estimate - tr[3][0], w.sizes.windows[(3, "renyi")])


def test_recomputation_rejects_wrong_boundary_labels(large):
    w, _ = large
    s = w.samples[1]
    ev, rf = s.split.eval_points(s.data), s.split.ref_points(s.data)
    labels = kf.detect_boundary(ev, s.k, s.split.n_ref, kf.BoundaryConfig(**wl.SWEEP_DETECTOR))
    assert labels.n_boundary > 0
    moved = dataclasses.replace(labels, interior=labels.interior[1:])
    radii = ref.kth_distances(rf, ev, s.k)
    graph = ref.eval_graph(ev, labels.K_used)
    failures = wl.check_recomputed("renyi-d3", ev, graph, radii, s.k, len(rf),
                                   wl.SWEEP_DETECTOR, "renyi", moved, 0.0)
    assert any("boundary labels differ" in f for f in failures)


def test_scaling_check_rejects_a_missing_log_term():
    assert wl.check_scaling("s", -0.7, -0.7 + 3 * math.log(2.5), 3, 2.5) == []
    assert wl.check_scaling("s", -0.7, -0.7 + math.log(2.5), 3, 2.5)
    assert wl.check_scaling("s", -0.7, -0.7 - 3 * math.log(2.5), 3, 2.5)


def test_monte_carlo_passes_uncorrupted(trials):
    w, outputs = trials
    assert w.check(outputs) == []


def test_monte_carlo_rejects_changed_trials(trials):
    w, outputs = trials
    res = outputs["cube"]
    flipped = dict(outputs, cube=dataclasses.replace(res, estimates=-res.estimates))
    failures = w.check(flipped)
    assert rejects(failures, "cube: trials rerun alone differ")
    assert rejects(failures, "cube mean")
    scaled = dict(outputs, mixture=dataclasses.replace(
        outputs["mixture"], estimates=3 * outputs["mixture"].estimates))
    assert rejects(w.check(scaled), "mixture mean")


def test_monte_carlo_window_rejects_the_wrong_truth(trials):
    w, outputs = trials
    mean = float(np.mean(outputs["cube"].estimates))
    assert wl.in_window("cube", mean - w.truth["mixture"], w.sizes.windows["cube"])


def test_cli_suite_passes_uncorrupted(cli):
    w, outputs = cli
    assert w.check(outputs) == []


def with_payload(outputs, label, **changes):
    out = dict(outputs)
    payload = dict(outputs[label]["payload"])
    for key, value in changes.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    out[label] = dict(outputs[label], payload=payload)
    return out


def test_cli_suite_rejects_a_swapped_structure_decision(cli):
    w, outputs = cli
    comparisons = [dict(outputs["structure"]["payload"]["comparisons"][0], decision="false")]
    assert rejects(w.check(with_payload(outputs, "structure", comparisons=comparisons)),
                   "structure: decision")


@pytest.mark.parametrize("label,field", [("entropy", "estimate"), ("mi-within", "N"),
                                         ("dimension", "d_hat"), ("tune", "k_opt")])
def test_cli_suite_rejects_a_removed_json_field(cli, label, field):
    w, outputs = cli
    failures = w.check(with_payload(outputs, label, **{field: None}))
    assert rejects(failures, f"{label}:") or rejects(failures, f"{label} ")


def test_cli_suite_rejects_d_rounded_off_by_one(cli):
    w, outputs = cli
    for off in (2, 4):
        assert rejects(w.check(with_payload(outputs, "dimension", d_rounded=off)), "dimension: d_rounded")
    text = outputs["dimension-scan"]["text"].replace(",2\n", ",3\n")
    scan = dict(outputs, **{"dimension-scan": dict(outputs["dimension-scan"], text=text)})
    assert rejects(w.check(scan), "dimension-scan")


def test_cli_suite_rejects_sign_flips_and_a_lost_seed(cli):
    w, outputs = cli
    for label in ("entropy", "mi-within"):
        est = outputs[label]["payload"]["estimate"]
        assert rejects(w.check(with_payload(outputs, label, estimate=-est)), f"{label}: error")
    assert rejects(w.check(with_payload(outputs, "structure", seed=w.seed + 1)), "structure: seed")


def test_cli_suite_rejects_a_wrong_k_opt_or_c1(cli):
    w, outputs = cli
    tune = outputs["tune"]["payload"]
    assert rejects(w.check(with_payload(outputs, "tune", k_opt=tune["k_opt"] + 1)), "tune: k_opt")
    c1 = -51.52  # h without its 1/(2 (d+2) pi) normalization
    failures = w.check(with_payload(outputs, "tune", c1=c1, k_opt=round((0.5 / 51.52) ** 0.6 * 7000 ** 0.4)))
    assert rejects(failures, "tune: c1") and not rejects(failures, "tune: k_opt")


def test_cli_suite_rejects_a_failed_command(cli):
    w, outputs = cli
    failed = dict(outputs, tune={"rc": 1})
    assert rejects(w.check(failed), "tune: exit code")


# -- tracer -------------------------------------------------------------------

def test_tracer_wraps_every_public_function_and_restores_them():
    import knnfunc.cli
    import knnfunc.inference

    before = (kf.bpi_estimate_bc, knnfunc.inference.run_trial, knnfunc.cli.run)
    tracer = Tracer()
    for name in ("knn.build_index", "knn.knn_radii", "boundary.detect_boundary",
                 "inference.run_trial", "cli.run", "data.load_csv", "rng.make_rng"):
        assert name in tracer.wrapped_names
    tracer.install()
    try:
        assert kf.bpi_estimate_bc is not before[0]
        assert knnfunc.inference.bpi_estimate_bc.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    assert (kf.bpi_estimate_bc, knnfunc.inference.run_trial, knnfunc.cli.run) == before


def test_layer_self_times_account_for_the_traced_calls():
    data = kf.sample_beta_uniform_mixture(3000, 3, 4.0, 4.0, 0.2, 1)
    sp = kf.split(data, 0.7, 1)
    tracer = Tracer()
    tracer.call_id = 0
    tracer.install()
    try:
        kf.renyi_entropy(data, sp, 0.5, 20, config=kf.BoundaryConfig(**wl.SWEEP_DETECTOR))
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s[4] is None]
    assert [s[0] for s in roots] == ["functionals.renyi_entropy"]
    metrics, total = layer_metrics(tracer.spans, 1)
    assert total == pytest.approx(roots[0][3] - roots[0][2], rel=1e-9)
    assert metrics["knn.index_builds"] >= 2 and metrics["knn.queries"] >= 2
    assert metrics["knn.neighbor_slots"] >= sp.n_eval * 20
    assert set(f"{layer}.self_s" for layer in LAYERS) <= set(metrics)
