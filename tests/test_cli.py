import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import knnfunc
from knnfunc.cli import _check_detector_flags, build_parser, run
from knnfunc.tuning import rate_matched_k

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schemas"
LIVE_DETECTOR = ["--pk-scale", "0.3", "--delta", "0.9", "--lipschitz", "0",
                 "--eps0", "1"]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def mixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "mix.csv"
    rc = run(["generate", "--dist", "beta-uniform", "--T", "3000", "--d", "3",
              "--a", "4", "--b", "4", "--eps", "0.2", "--seed", "1",
              "-o", str(path)])
    assert rc == 0
    return path


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for p in (a, b):
        rc = run(["generate", "--dist", "uniform", "--T", "50", "--d", "2",
                  "--seed", "9", "-o", str(p)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_entropy_pipeline(mixture_csv, tmp_path):
    out = tmp_path / "ent.json"
    args = ["entropy", "--input", str(mixture_csv), "--alpha-frac", "0.7",
            "--seed", "7", "--pk-scale", "0.3",
            "--delta", "0.9", "--lipschitz", "0", "--eps0", "1",
            "-o", str(out)]
    assert run(args) == 0
    payload = _read_json(out)
    assert payload["schema_version"] == 1
    assert payload["seed"] == 7
    assert {"estimate", "k", "N", "M", "variance_estimate", "ci"} <= set(payload)
    assert payload["k"] == rate_matched_k(payload["M"], 3)  # the default k
    # determinism: byte-identical on repeat
    out2 = tmp_path / "ent2.json"
    assert run(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_entropy_plain_variant(mixture_csv, tmp_path):
    out = tmp_path / "p.json"
    assert run(["entropy", "--input", str(mixture_csv), "--k", "10",
                "--no-bias-correction", "--seed", "3", "-o", str(out)]) == 0
    assert _read_json(out)["estimator_variant"] == "bpi"


def test_renyi_and_mi(mixture_csv, tmp_path):
    out = tmp_path / "r.json"
    assert run(["renyi", "--input", str(mixture_csv), "--alpha", "0.5",
                "--k", "12", "--seed", "5", "--pk-scale", "0.3",
                "--delta", "0.9", "--lipschitz", "0", "--eps0", "1",
                "-o", str(out)]) == 0
    assert np.isfinite(_read_json(out)["estimate"])
    out2 = tmp_path / "mi.json"
    assert run(["mi", "--input", str(mixture_csv), "--x-cols", "0",
                "--y-cols", "1,2", "--k", "12", "--seed", "5",
                "--pk-scale", "0.3", "--delta", "0.9", "--lipschitz", "0",
                "--eps0", "1", "-o", str(out2)]) == 0
    assert "estimate" in _read_json(out2)


def test_density_csv_output(mixture_csv, tmp_path):
    out = tmp_path / "dens.csv"
    assert run(["density", "--input", str(mixture_csv), "--k", "8",
                "--seed", "2", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# seed=2")
    first = lines[1].split(",")
    assert len(first) == 5  # 3 coords, value, flag
    assert first[-1] in ("interior", "boundary")


def test_tune_smoke(tmp_path):
    out = tmp_path / "tune.json"
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(["tune", "--density", "uniform", "--d", "3",
                    "--n-mc", "20000", "--M", "7000", "--seed", "1",
                    "-o", str(out)]) == 0
    payload = _read_json(out)
    assert payload["k_rate_matched"] == 35
    assert abs(payload["c2"] - 0.5) < 1e-9


def test_experiment_subcommand(tmp_path):
    spec = {
        "generator": "uniform",
        "generator_params": {"d": 2},
        "T": 1200,
        "alpha_frac": 0.7,
        "functional_id": "shannon",
        "k_rule": "fixed",
        "k": 6,
        "truth": 0.0,
        "base_seed": 11,
        "boundary_config": {"delta": 0.9, "lipschitz_L": 0.0, "eps0": 1.0,
                            "pk_scale": 0.3},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "summary.json"
    trials_csv = tmp_path / "trials.csv"
    assert run(["experiment", "--spec", str(spec_path), "--trials", "25",
                "--trials-csv", str(trials_csv), "-o", str(out)]) == 0
    payload = _read_json(out)
    assert payload["n_trials"] == 25
    assert "coverage" in payload and "ks_p" in payload
    assert len(trials_csv.read_text().strip().split("\n")) == 26


def test_dimension_subcommands(tmp_path):
    csv = tmp_path / "mani.csv"
    assert run(["generate", "--dist", "manifold", "--T", "4000",
                "--intrinsic-d", "2", "--ambient-D", "3", "--seed", "4",
                "-o", str(csv)]) == 0
    out = tmp_path / "dim.json"
    assert run(["dimension", "--input", str(csv), "--k1", "15",
                "--seed", "3", "-o", str(out)]) == 0
    payload = _read_json(out)
    assert payload["d_rounded"] == 2
    scan_out = tmp_path / "scan.csv"
    assert run(["dimension-scan", "--input", str(csv), "--window", "1000",
                "--stride", "500", "--k1", "10", "--seed", "3",
                "-o", str(scan_out)]) == 0
    lines = scan_out.read_text().strip().split("\n")
    assert lines[0] == "window_start,d_hat,d_rounded"
    assert len(lines) > 1


@pytest.mark.parametrize("argv,name", [
    (["dimension-scan", "--window", "320", "--k1", "2"], "k1"),
    (["dimension-scan", "--window", "320", "--k1", "5", "--k2", "5"], "k2"),
    (["dimension-scan", "--window", "320", "--gamma", "0"], "gamma"),
    (["dimension-scan", "--window", "320", "--gamma", "-1"], "gamma"),
    (["dimension", "--alpha-frac", "5"], "alpha_frac"),
    (["dimension", "--alpha-frac", "-1"], "alpha_frac"),
    (["dimension", "--gamma", "0"], "gamma"),
    # halves of 320 rows: 0 references, or 0 evaluation rows
    (["dimension", "--alpha-frac", "0.0001"], "alpha_frac"),
    (["dimension", "--alpha-frac", "0.9999"], "alpha_frac"),
    (["dimension-scan", "--window", "320", "--alpha-frac", "0.0001"], "alpha_frac"),
])
def test_dimension_bad_parameter_is_named(tmp_path, capsys, argv, name):
    from knnfunc import sample_projected_manifold

    csv = tmp_path / "mani.csv"
    np.savetxt(csv, sample_projected_manifold(640, 2, 3, 4).points, delimiter=",")
    out = tmp_path / "never.out"
    assert run(argv + ["--input", str(csv), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must ")
    assert not out.exists()


def test_structure_subcommand(tmp_path):
    csv = tmp_path / "blocks.csv"
    from knnfunc import sample_block_beta_mixture

    data = sample_block_beta_mixture(8000, [1, 1, 1, 2], seed=6)
    csv.write_text(
        "\n".join(",".join(f"{v:.10g}" for v in row) for row in data.points) + "\n"
    )
    models = {
        "models": {
            "paired": [[3, 4], [0], [1], [2]],
            "broken": [[1, 3], [0], [2], [4]],
        },
        "pairs": [["paired", "broken"]],
    }
    mpath = tmp_path / "models.json"
    mpath.write_text(json.dumps(models))
    out = tmp_path / "cmp.json"
    assert run(["structure", "--input", str(csv), "--models", str(mpath),
                "--k", "12", "--seed", "8", "--pk-scale", "0.3",
                "--delta", "0.9", "--lipschitz", "0", "--eps0", "1",
                "-o", str(out)]) == 0
    payload = _read_json(out)
    assert payload["comparisons"][0]["decision"] == "paired"
    assert set(payload["comparisons"][0]) == {"model_n", "model_l", "statistic", "decision"}


def test_usage_error_exit_2_no_partial_output(tmp_path):
    out = tmp_path / "never.json"
    rc = run(["entropy", "--input", "x.csv", "--bogus-flag", "-o", str(out)])
    assert rc == 2
    assert not out.exists()


def test_runtime_error_exit_1(tmp_path):
    rc = run(["entropy", "--input", str(tmp_path / "missing.csv"),
              "--k", "5", "--seed", "1"])
    assert rc == 1


def test_mi_column_outside_the_data_is_named(mixture_csv, tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = run(["mi", "--input", str(mixture_csv), "--x-cols", "5", "--y-cols", "1",
              "--k", "12", "-o", str(out)])
    assert rc == 1
    assert "error: x column 5 outside 0..2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["bogus", "boundary_correct"])
def test_experiment_spec_key_the_spec_lacks_is_named(tmp_path, capsys, key):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "generator": "uniform", "generator_params": {"d": 2}, "T": 600,
        "alpha_frac": 0.7, "functional_id": "shannon", key: 1}))
    out = tmp_path / "never.json"
    rc = run(["experiment", "--spec", str(spec), "--trials", "2", "-o", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("fields,problem", [
    ({"T": 40, "k_rule": "fixed", "k": 30}, "k=30 outside [3, 28]"),
    ({"generator": "nope"}, "unknown generator 'nope'"),
    ({"k_rule": "optimal"}, "unknown k rule 'optimal'"),
    ({"k": 40}, "rate k rule picks k from M, so k=40 would be ignored; use k_rule 'fixed'"),
])
def test_experiment_failing_trial_is_named(tmp_path, capsys, fields, problem):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "generator": "uniform", "generator_params": {"d": 2}, "T": 600,
        "alpha_frac": 0.7, "functional_id": "shannon", **fields}))
    out = tmp_path / "never.json"
    rc = run(["experiment", "--spec", str(spec), "--trials", "2", "-o", str(out)])
    assert rc == 1
    # a bad k rule fails when the spec is built, before any trial runs
    where = "" if "k rule" in problem else "trial 0 failed: "
    assert capsys.readouterr().err == f"error: {where}{problem}\n"
    assert not out.exists()


def test_experiment_spec_constants_are_theory_constants(tmp_path, capsys):
    # oracle constants give the trials' intervals; a bad value is named
    constants = {"c1": 1.0, "c2": 0.5, "c3": 0.0, "c4": 1.0, "c5": 0.5, "mode": "oracle"}
    spec = tmp_path / "spec.json"
    out = tmp_path / "summary.json"
    for c4, rc_want in ((1.0, 0), (-1.0, 1)):
        spec.write_text(json.dumps({
            "generator": "uniform", "generator_params": {"d": 2}, "T": 600,
            "alpha_frac": 0.7, "functional_id": "shannon", "k_rule": "fixed",
            "k": 6, "truth": 0.0, "constants": {**constants, "c4": c4}}))
        rc = run(["experiment", "--spec", str(spec), "--trials", "2", "-o", str(out)])
        assert rc == rc_want
    assert capsys.readouterr().err == "error: variance constants must be nonnegative\n"
    assert "coverage" in _read_json(out)


def test_experiment_spec_that_is_not_an_object_is_named(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]")
    out = tmp_path / "never.json"
    rc = run(["experiment", "--spec", str(spec), "--trials", "2", "-o", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec {spec}: expected a JSON object") and "list" in err
    assert not out.exists()


@pytest.mark.parametrize("models,problem", [
    ([["a", [[0], [1, 2]]]], 'expected an object whose "models"'),
    ({"models": [[0]]}, 'expected an object whose "models"'),
    ({"models": {"a": [0, 1, 2]}}, "model 'a' is not a list of column lists"),
    ({"models": {"a": [[0], [1, 2]], "b": [[0, 1], [2]]}, "pairs": [["a", "zz"]]},
     "a pair names unknown model 'zz'"),
    ({"models": {"a": [[0], [1, 2]], "b": [[0, 1], [2]]}, "pairs": "ab"},
     '"pairs" must be a list of [name, name] pairs'),
], ids=["top-level-list", "models-list", "model-of-columns", "unknown-model", "pairs-string"])
def test_structure_models_of_the_wrong_shape_are_named(mixture_csv, tmp_path, capsys,
                                                        models, problem):
    path = tmp_path / "models.json"
    path.write_text(json.dumps(models))
    out = tmp_path / "never.json"
    rc = run(["structure", "--input", str(mixture_csv), "--models", str(path),
              "--k", "8", "-o", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: models {path}: {problem}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # flags these subcommands do not take
    ["entropy", "--no-boundary-correction"],
    ["renyi", "--alpha", "0.5", "--no-boundary-correction"],
    ["mi", "--x-cols", "0", "--y-cols", "1", "--no-boundary-correction"],
    ["density", "--ci-level", "0.9"],
    ["entropy", "--threads", "2"],
    # the detector runs on both constants; its tuning flags need them
    ["entropy", "--lipschitz", "0"],
    ["entropy", "--pk-scale", "0.3"],
    ["entropy", "--lipschitz", "auto", "--eps0", "1"],
])
def test_contradictory_or_ignored_flags_are_usage_errors(mixture_csv, tmp_path, argv):
    out = tmp_path / "never.json"
    rc = run(argv + ["--input", str(mixture_csv), "--k", "8", "-o", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--x-cols", "a"), ("--x-cols", "0,"),
                                        ("--y-cols", "1,b")])
def test_malformed_mi_columns_are_usage_errors(tmp_path, capsys, flag, value):
    # a usage error, named and raised before the (here missing) input is read
    cols = {"--x-cols": "0", "--y-cols": "1", flag: value}
    out = tmp_path / "never.json"
    rc = run(["mi", "--input", str(tmp_path / "missing.csv"),
              *(arg for item in cols.items() for arg in item), "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not comma-separated integers: '{value}'" in err
    assert "missing.csv" not in err
    assert not out.exists()


def test_zero_eps0_is_named(mixture_csv, tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = run(["entropy", "--input", str(mixture_csv), "--lipschitz", "1", "--eps0", "0",
              "-o", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: eps0 must be positive\n"
    assert not out.exists()


def test_deleted_flags_are_usage_errors(mixture_csv, tmp_path):
    # --k-rule's one value was the default k; experiment's --seed was never
    # read, as the spec's base_seed seeds the trials
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "generator": "uniform", "generator_params": {"d": 2}, "T": 600,
        "alpha_frac": 0.7, "functional_id": "shannon", "k_rule": "fixed", "k": 6}))
    for argv in (["entropy", "--input", str(mixture_csv), "--k-rule", "rate"],
                 ["experiment", "--spec", str(spec), "--trials", "2", "--seed", "3"]):
        out = tmp_path / "never.json"
        assert run(argv + ["-o", str(out)]) == 2, argv
        assert not out.exists()


def test_non_positive_dimension_is_named(tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = run(["tune", "--density", "uniform", "--d", "0", "--M", "100", "-o", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: density dimension must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("a", ["0.7", "1.5"])
def test_tune_pdf_not_finite_near_a_draw_is_named(tmp_path, capsys, a):
    # a non-integer Beta shape has no real pdf left of 0, where the Hessian's
    # central difference steps draws near 0; the error names the first such
    # draw and the step, and no warning comes before it
    out = tmp_path / "never.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["tune", "--density", "beta-uniform", "--d", "2", "--a", a, "--b", "3",
                  "--M", "7000", "--n-mc", "100000", "--seed", "1", "-o", str(out)])
    assert rc == 1
    assert caught == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the density's pdf is not finite at draw \d+ \[.*\] or at a "
                        r"point one finite-difference step \(0\.0001\) from it along an axis;"
                        r" .*\n", err), err
    assert not out.exists()


def test_readme_cli_examples_parse():
    # every knnfunc line of the README's CLI block parses, with the
    # detector flag checks run() adds; nothing is run
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    examples = [argv[1:] for argv in lines if argv and argv[0] == "knnfunc"]
    assert len(examples) == len(lines) >= 9
    parser = build_parser()
    for argv in examples:
        try:
            args = parser.parse_args(argv)
            if hasattr(args, "lipschitz"):
                _check_detector_flags(parser, args)
        except SystemExit:
            pytest.fail(f"README example does not parse: knnfunc {shlex.join(argv)}")


@pytest.mark.parametrize("flag,field", [("--pk-scale", "pk_scale"),
                                        ("--lipschitz", "lipschitz_L"),
                                        ("--eps0", "eps0")])
def test_non_finite_detector_constant_is_named(mixture_csv, tmp_path, capsys, flag, field):
    out = tmp_path / "never.json"
    rc = run(["entropy", "--input", str(mixture_csv), "--k", "8", *LIVE_DETECTOR,
              flag, "nan", "-o", str(out)])
    assert rc == 1
    assert f"{field} must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s to import, which every CLI call would pay;
    # only normality_diagnostics needs it, and imports it when called
    env = dict(os.environ, PYTHONPATH=str(Path(knnfunc.__file__).parent.parent))
    code = ("import sys, numpy, knnfunc, knnfunc.cli, knnfunc.inference as inf\n"
            "before = 'scipy.stats' in sys.modules\n"
            "inf.normality_diagnostics(numpy.arange(30.0) ** 2)\n"
            "print(before, 'scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]


def _validate(payload, schema):
    import jsonschema

    with open(SCHEMA_DIR / f"{schema}.schema.json", encoding="utf-8") as fh:
        jsonschema.Draft202012Validator(json.load(fh)).validate(payload)


def test_json_outputs_match_their_schemas(mixture_csv, tmp_path):
    mani = tmp_path / "mani.csv"
    assert run(["generate", "--dist", "manifold", "--T", "2000",
                "--intrinsic-d", "2", "--ambient-D", "3", "--seed", "4",
                "-o", str(mani)]) == 0
    blocks = tmp_path / "blocks.csv"
    from knnfunc import sample_block_beta_mixture

    data = sample_block_beta_mixture(3000, [1, 1, 2], seed=6)
    blocks.write_text(
        "\n".join(",".join(f"{v:.17g}" for v in row) for row in data.points) + "\n"
    )
    models = tmp_path / "models.json"
    models.write_text(json.dumps({"models": {"a": [[0], [1], [2, 3]],
                                             "b": [[0, 2], [1], [3]]},
                                  "pairs": [["a", "b"]]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "generator": "uniform", "generator_params": {"d": 2}, "T": 600,
        "alpha_frac": 0.7, "functional_id": "shannon", "k_rule": "fixed",
        "k": 6, "truth": 0.0, "base_seed": 2,
        "boundary_config": {"delta": 0.9, "lipschitz_L": 0.0, "eps0": 1.0,
                            "pk_scale": 0.3}}))
    commands = {
        "entropy": (["entropy", "--input", str(mixture_csv), "--k", "10"],
                    "estimate_report"),
        "mi": (["mi", "--input", str(mixture_csv), "--x-cols", "0",
                "--y-cols", "1,2", "--k", "10"] + LIVE_DETECTOR, "estimate_report"),
        "dimension": (["dimension", "--input", str(mani), "--k1", "15"],
                      "dimension_result"),
        "structure": (["structure", "--input", str(blocks), "--models", str(models),
                       "--k", "12"] + LIVE_DETECTOR, "model_comparison"),
        # experiment takes no --seed: the spec's base_seed seeds its trials
        "experiment": (["experiment", "--spec", str(spec), "--trials", "20"],
                       "experiment_summary"),
        "tune": (["tune", "--density", "uniform", "--d", "3", "--n-mc", "20000",
                  "--M", "7000"], "tune_result"),
    }
    for name, (argv, schema) in commands.items():
        out = tmp_path / f"{name}.json"
        seed = [] if name == "experiment" else ["--seed", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(argv + seed + ["-o", str(out)]) == 0, name
        _validate(_read_json(out), schema)


def test_boundary_corrected_false_when_detector_relabels_nothing(tmp_path):
    # d = 3 mixture at T = 10^4: with no detector flags no point is
    # relabelled; the live detector relabels points near the faces
    csv = tmp_path / "mix.csv"
    assert run(["generate", "--dist", "beta-uniform", "--T", "10000", "--d", "3",
                "--a", "4", "--b", "4", "--eps", "0.2", "--seed", "7",
                "-o", str(csv)]) == 0
    default = tmp_path / "default.json"
    live = tmp_path / "live.json"
    assert run(["entropy", "--input", str(csv), "--seed", "7",
                "-o", str(default)]) == 0
    assert run(["entropy", "--input", str(csv), "--seed", "7", *LIVE_DETECTOR,
                "-o", str(live)]) == 0
    assert _read_json(default)["boundary_corrected"] is False
    assert _read_json(live)["boundary_corrected"] is True


def test_input_layout_does_not_change_output(tmp_path):
    # the same sample written plain, and with CRLF, a header, blank lines
    # and padded cells, must give byte-identical outputs
    from knnfunc import sample_block_beta_mixture

    data = sample_block_beta_mixture(1200, [2, 1], seed=12)
    rows = [[repr(float(v)) for v in row] for row in data.points]
    plain = tmp_path / "plain"
    padded = tmp_path / "padded"
    plain.mkdir()
    padded.mkdir()
    (plain / "s.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    lines = ["x0,x1,x2"]
    for i, r in enumerate(rows):
        if i % 97 == 0:
            lines.append("")
        lines.append(",".join(f" {c}\t" if j == 1 else c for j, c in enumerate(r)))
    (padded / "s.csv").write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("utf-8"))
    models = tmp_path / "models.json"
    models.write_text(json.dumps({"models": {"true": [[0, 1], [2]],
                                             "false": [[0, 2], [1]]},
                                  "pairs": [["true", "false"]]}))
    commands = {
        "entropy.json": ["entropy", "--k", "10"],
        "mi.json": ["mi", "--x-cols", "0", "--y-cols", "1", "--k", "10"] + LIVE_DETECTOR,
        "dimension.json": ["dimension", "--k1", "10"],
        "scan.csv": ["dimension-scan", "--window", "300", "--stride", "150",
                     "--k1", "5"],
        "structure.json": ["structure", "--models", str(models), "--k", "10"]
                          + LIVE_DETECTOR,
    }
    for name, argv in commands.items():
        outputs = []
        for folder, extra in ((plain, []), (padded, ["--header"])):
            out = folder / name
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert run(argv + ["--input", str(folder / "s.csv"), *extra,
                                   "--seed", "5", "-o", str(out)]) == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
