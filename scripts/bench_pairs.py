"""Benchmark a change against a parent commit in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent HEAD --runs cli-suite:101-110 \
        --runs large-estimate:201-204 --out BENCH_n.json --what "..."

The parent runs from a git archive of its commit in a temporary directory,
the change from this working tree.  Each seed is one pair: BENCHMARK.json's
command for its run_seconds with --trace 0 on both sides, the parent first
at even pair index and the change first at odd.  The result line of every run (the last line of its
standard output) goes into the output file with the fields what, parent,
command, host, order, runs, summary and, if --bit-identity names a JSON
file, bit_identity.  The summary, also printed, gives each metric's
medians and the pairs the change won, with three verdicts per metric:

- claim holds: the change won at least 9 in 10 of at least 10 pairs
  (a tie counts for neither side), and its median beats the parent's by
  more than the parent's interquartile range;
- WORSE: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, read as a fraction of the
  parent's median;
- unresolved: the parent's interquartile range is wider than that
  bound, so a median within it does not show the metric unchanged,
  unless every change run beats every parent run.

Nothing under perfbench/ is written to except its out/ directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# one run's argv, with {workload} and {seed} to fill in
COMMAND = [*_BENCHMARK["command"], "--workload", "{workload}", "--seed", "{seed}",
           "--seconds", str(_BENCHMARK["run_seconds"]), "--trace", "0"]
# the end-to-end metrics: name -> (better, bound)
METRICS = {m["name"]: (m["better"], m["bound"]) for m in _BENCHMARK["end_to_end"]}


def parse_runs(text):
    """'workload:first-last' as (workload, [seeds])."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    if not workload or not first.isdigit() or not (last or first).isdigit():
        raise argparse.ArgumentTypeError(f"expected workload:first-last, got {text!r}")
    return workload, list(range(int(first), int(last or first) + 1))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--runs", type=parse_runs, action="append", required=True,
                   metavar="WORKLOAD:FIRST-LAST", help="a workload and its seeds, one pair each")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--what", default="", help="what the change does")
    p.add_argument("--bit-identity", help="a JSON file to store as bit_identity")
    return p.parse_args(argv)


def archive(commit, dest):
    """Extract a git archive of commit into dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    tar = Path(dest) / "parent.tar"
    subprocess.run(["git", "archive", "-o", str(tar), commit], cwd=ROOT, check=True)
    with tarfile.open(tar) as fh:
        fh.extractall(Path(dest) / "tree", filter="data")
    tar.unlink()
    return short


def run_once(tree, workload, seed):
    """The result line of one perfbench run in tree, or its failure."""
    argv = [a.format(workload=workload, seed=seed) for a in COMMAND]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "exit_code": out.returncode, "stderr": out.stderr[-2000:]}


def summarize(runs):
    """Per workload and metric: parent median [quartiles] -> change median,
    the pairs won, lost and tied, and the verdicts of the module
    docstring."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"].get("metrics", {})
        lines.append(f"{workload} ({len(pairs)} pairs)")
        for name, (better, bound) in METRICS.items():
            both = [(p["parent"][name]["value"], p["change"][name]["value"])
                    for p in pairs.values() if name in p.get("parent", {}) and name in p.get("change", {})]
            if not both:
                continue
            par, chg = zip(*both)
            q = statistics.quantiles(par, n=4) if len(par) > 1 else (par[0], par[0], par[0])
            sign = 1 if better == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in both)
            lost = sum(sign * (c - p) < 0 for p, c in both)
            med = statistics.median(par)
            gain = sign * (statistics.median(chg) - med)
            claim = len(both) >= 10 and 10 * won >= 9 * len(both) and gain > q[2] - q[0]
            line = (f"  {name}: {med:.4g} [{q[0]:.4g}, {q[2]:.4g}] -> "
                    f"{statistics.median(chg):.4g}, change won {won}/{len(both)}, "
                    f"lost {lost}, tied {len(both) - won - lost}; "
                    f"claim {'holds' if claim else 'does not hold'}")
            if -gain > bound * abs(med):
                line += f"; WORSE than the parent by more than the bound {bound:g}"
            if q[2] - q[0] > bound * abs(med) and not all(
                    sign * (c - p) > 0 for c in chg for p in par):
                line += ("; unresolved: the parent's interquartile range is wider than "
                         f"the bound {bound:g}")
            lines.append(line)
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = archive(args.parent, tmp)
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload, seeds in args.runs:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "ran_first": side == order[0], "result": result})
                    print(workload, seed, side, json.dumps(result.get("metrics", result))[:160],
                          flush=True)
    batches = ", ".join(f"{w} seeds {s[0]}-{s[-1]}" for w, s in args.runs)
    doc = {
        "what": args.what,
        "parent": parent,
        "command": " ".join(COMMAND).format(workload="<workload>", seed="<seed>"),
        "host": f"{len(os.sched_getaffinity(0))}-core {platform.machine()} {platform.system()}, "
                f"Python {platform.python_version()}; the parent ran from a git archive of its "
                "commit, the change from the working tree",
        "order": f"alternating: parent first at even pair index, change first at odd; {batches}",
        "runs": runs,
        "summary": summarize(runs).splitlines(),
    }
    if args.bit_identity:
        with open(args.bit_identity, encoding="utf-8") as fh:
            doc["bit_identity"] = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(summarize(runs))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
