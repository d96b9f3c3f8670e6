"""The experiment scripts run with only the library's source on the path:
each parses its arguments, and each runs end to end with two trials, so a
script that calls a deleted name, passes a field the library no longer
takes or imports from tests/ fails here rather than when someone next
runs it."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))
RUNS = ([pytest.param(s, ["--help"], id=s.stem) for s in SCRIPTS]
        + [pytest.param(s, ["--trials", "2"], id=f"{s.stem}-trials2") for s in SCRIPTS])


def test_scripts_found():
    assert len(SCRIPTS) == 4


@pytest.mark.parametrize("script,argv", RUNS)
def test_script_help_on_library_alone(script, argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    if argv == ["--help"]:
        assert out.stdout.startswith("usage:")
    else:
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == 1 and f"wrote {written[0].name}" in out.stdout


CODE_LINES_FIXTURE = '''\
"""A module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """A docstring."""
    s = """a string
that is a value"""
    return os.path.join(x,
                        s)


class C:
    "a docstring in single quotes"

    y = 1
'''


def test_code_lines_leaves_out_blank_comment_and_docstring_lines(tmp_path):
    # import, def, the two-line assignment, the two-line return, class, y
    (tmp_path / "fixture.py").write_text(CODE_LINES_FIXTURE)
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["     8  fixture.py", f"     8  total ({tmp_path})"]


def test_op_memory_reports_each_operation_of_a_round():
    # in a process of its own: it puts perfbench's modules on the path
    code = ("import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('op_memory', sys.argv[1])\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "print(repr(module.op_memory('cli-suite', 1, short=True)))\n")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts" / "op_memory.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    rows = ast.literal_eval(out.stdout.strip().splitlines()[-1])
    assert rows[0][0] == "setup" and rows[0][2] is None
    assert sorted(label for label, _, _, _, _ in rows[1:]) == sorted(
        ["entropy", "mi-within", "mi-across", "dimension", "dimension-scan", "structure",
         "tune"])
    rss = [r for _, r, _, _, _ in rows]
    assert rss == sorted(rss) and rss[0] > 0
    assert all(peak > 0 for _, _, peak, _, _ in rows[1:])
    assert all(seconds > 0 for _, _, _, seconds, _ in rows)
    # process CPU time: some for each operation, and no more than every CPU
    # the process may use could give over its wall time
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert all(0 < cpu <= 1.05 * cpus * seconds + 0.01 for _, _, _, seconds, cpu in rows)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workload, metrics):
    """Hand-made runs: metrics maps a name to (parent values, change values),
    one pair per position."""
    runs = []
    n = len(next(iter(metrics.values()))[0])
    for i in range(n):
        for j, side in enumerate(("parent", "change")):
            values = {name: {"value": sides[j][i]} for name, sides in metrics.items()}
            runs.append({"workload": workload, "seed": 100 + i, "side": side,
                         "result": {"metrics": values}})
    return runs


def test_bench_pairs_summary_states_the_claim_rule_and_the_bounds():
    summarize = _bench_pairs().summarize
    base = [90.0, 90.2, 90.4, 90.6, 90.8, 91.0, 91.2, 91.4, 91.6, 91.8]
    runs = _runs("cli-suite", {
        # won 10/10, by 8.8 MB against an interquartile range of 1 MB
        "peak_rss_mb": (base, [82.0] * 10),
        # won 9/10 (one tie), but the medians differ by less than the
        # parent's interquartile range
        "estimates_per_s": (base, [v + 0.1 for v in base[:9]] + [base[9]]),
        # 60% slower: past the 0.25 bound
        "call_s_p50": ([0.1] * 10, [0.16] * 10),
        # identical: ten ties
        "rmse": ([0.05] * 10, [0.05] * 10),
    }) + _runs("monte-carlo", {"peak_rss_mb": ([80.0, 80.5, 81.0], [70.0] * 3)}) + _runs(
        "large-estimate", {
            # a bimodal parent: its interquartile range, 20 MB, is wider than
            # the 10% bound, so a level median shows nothing
            "peak_rss_mb": ([90.0, 110.0] * 5, [100.0] * 10),
            # as wide, but every change run beats every parent run
            "setup_s": ([0.4, 0.8] * 5, [0.3] * 10),
        })
    lines = summarize(runs).splitlines()
    assert lines[0] == "cli-suite (10 pairs)"
    assert lines[1] == ("  estimates_per_s: 90.9 [90.35, 91.45] -> 91, change won 9/10, "
                        "lost 0, tied 1; claim does not hold")
    assert lines[2] == ("  call_s_p50: 0.1 [0.1, 0.1] -> 0.16, change won 0/10, lost 10, "
                        "tied 0; claim does not hold; WORSE than the parent by more than "
                        "the bound 0.25")
    assert lines[3] == ("  peak_rss_mb: 90.9 [90.35, 91.45] -> 82, change won 10/10, "
                        "lost 0, tied 0; claim holds")
    assert lines[4] == ("  rmse: 0.05 [0.05, 0.05] -> 0.05, change won 0/10, lost 0, "
                        "tied 10; claim does not hold")
    # three pairs are too few for a claim, however large the gain
    assert lines[5:7] == ["monte-carlo (3 pairs)",
                          "  peak_rss_mb: 80.5 [80, 81] -> 70, change won 3/3, lost 0, "
                          "tied 0; claim does not hold"]
    assert lines[7:] == [
        "large-estimate (10 pairs)",
        "  setup_s: 0.6 [0.4, 0.8] -> 0.3, change won 10/10, lost 0, tied 0; "
        "claim does not hold",
        "  peak_rss_mb: 100 [90, 110] -> 100, change won 5/10, lost 5, tied 0; "
        "claim does not hold; unresolved: the parent's interquartile range is wider "
        "than the bound 0.1",
    ]
