"""Run one benchmark workload against the knnfunc sources of this checkout.

    python3 perfbench/run.py --workload large-estimate --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of an outside-in trace and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  ``--short`` runs a reduced-size round for the benchmark's own
tests.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
# median time of the calibration job on the reference machine (2 cores) in
# a quiet phase; timings are reported in seconds of that machine
CALIB_REF_S = 0.025

END_TO_END_UNITS = {"setup_s": "s", "estimates_per_s": "1/s", "call_s_p50": "s",
                    "peak_rss_mb": "MB", "rmse": "nats"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["large-estimate", "monte-carlo", "cli-suite"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--short", action="store_true", help="reduced sizes, one round")
    return p.parse_args(argv)


def limit_threads():
    """At most nproc threads, BLAS included; must run before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def import_library():
    """Import knnfunc from this checkout's src/ and return the seconds taken."""
    src = ROOT / "src"
    if not (src / "knnfunc" / "__init__.py").is_file():
        raise SystemExit(f"error: no knnfunc sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    start = perf_counter()
    import knnfunc  # noqa: F401
    import knnfunc.cli  # noqa: F401
    import knnfunc.inference  # noqa: F401
    elapsed = perf_counter() - start
    if Path(knnfunc.__file__).resolve().parent != (src / "knnfunc").resolve():
        raise SystemExit(f"error: imported knnfunc from {knnfunc.__file__}, not {src}")
    return elapsed


class Calibration:
    """A fixed scipy k-d tree job, timed next to the program's calls.

    The host's slow phases (other tenants on the same cores) slow this job
    about as much as they slow knnfunc, so dividing by its time removes most
    of their effect from the reported timings.
    """

    def __init__(self):
        import numpy as np  # loaded by knnfunc's import, which is timed first

        rng = np.random.default_rng(0)
        self.points = rng.random((20_000, 3))
        self.queries = rng.random((3_000, 3))

    def __call__(self):
        from scipy.spatial import cKDTree

        start = perf_counter()
        cKDTree(self.points).query(self.queries, k=30)
        return perf_counter() - start


class Round:
    """Wall times and outputs of one pass over a workload's operations."""

    def __init__(self):
        self.walls = {}  # label -> seconds, for the operations that succeeded
        self.scaled = {}  # label -> reference seconds
        self.failed = 0
        self.outputs = {}

    @property
    def wall(self):
        return sum(self.walls.values())


def run_round(ops, tracer=None, calibrate=None):
    """One pass over ops.  With ``calibrate``, the calibration job runs
    before each call and after the last, and each call's wall time is also
    scaled by CALIB_REF_S over the mean of the two calibrations around it."""
    rnd = Round()
    before = calibrate() if calibrate is not None else None
    for call_id, op in enumerate(ops):
        if tracer is not None:
            tracer.call_id = call_id
            tracer.install()
        try:
            start = perf_counter()
            result = op.call()
            wall = perf_counter() - start
        except Exception:  # an operation that fails is counted, not fatal
            traceback.print_exc()
            rnd.failed += op.estimates
            continue
        finally:
            if tracer is not None:
                tracer.uninstall()
        rnd.walls[op.label] = wall
        rnd.outputs[op.label] = op.collect(result)
        if calibrate is not None:
            after = calibrate()
            rnd.scaled[op.label] = wall * CALIB_REF_S / (0.5 * (before + after))
            before = after
    return rnd


def attempted(rounds, ops):
    return len(rounds) * sum(op.estimates for op in ops)


def determinism_failures(workload, rounds):
    first = rounds[0].outputs
    bad = sorted({label for rnd in rounds[1:] for label, out in rnd.outputs.items()
                  if label in first and workload.signature(out) != workload.signature(first[label])})
    return [f"{label}: output differs between rounds" for label in bad]


def typical_rate(ops, rounds):
    """Estimates per reference second of a typical round: each operation's
    estimates over its median scaled wall time across rounds, so that a
    burst of machine noise in one round does not move the figure."""
    estimates = seconds = 0.0
    for op in ops:
        walls = [r.scaled[op.label] for r in rounds if op.label in r.scaled]
        if walls:
            estimates += op.estimates
            seconds += statistics.median(walls)
    return estimates / seconds


def rmse(workload, outputs):
    errors = workload.errors(outputs)
    return math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else float("nan")


def measure(workload, seconds, import_s, short):
    calibrate = Calibration()
    setups, calibrations = [], [calibrate()]
    for _ in range(1 if short else SETUP_REPS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
        calibrations.append(calibrate())
    setup_scale = CALIB_REF_S / statistics.median(calibrations)
    ops = workload.operations()
    rounds = []
    begin = perf_counter()
    while not rounds or (not short and perf_counter() - begin < seconds):
        rounds.append(run_round(ops, calibrate=calibrate))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(rounds)} rounds; calibration job median "
          f"{statistics.median(calibrations):.4f} s in setup (reference {CALIB_REF_S} s)",
          file=sys.stderr)
    metrics = {
        "setup_s": (import_s + statistics.median(setups)) * setup_scale,
        "estimates_per_s": typical_rate(ops, rounds),
        "call_s_p50": statistics.median(w for rnd in rounds for w in rnd.scaled.values()),
        "peak_rss_mb": peak_rss_mb,
    }
    return ops, rounds, metrics


def measure_traced(workload, seconds, short, out_dir):
    """Alternate untraced and traced rounds; report per-round layer metrics."""
    from tracer import Tracer, layer_metrics

    workload.setup()
    ops = workload.operations()
    tracer = Tracer()
    calibrate = Calibration()
    untraced, traced = [], []
    origin = begin = perf_counter()
    while not traced or (not short and perf_counter() - begin < seconds):
        untraced.append(run_round(ops, calibrate=calibrate))
        traced.append(run_round(ops, tracer, calibrate))
    metrics, self_total = layer_metrics(tracer.spans, len(traced))
    call_wall = sum(r.wall for r in traced)
    metrics["trace.overhead_s"] = (statistics.median(sum(r.scaled.values()) for r in traced)
                                   - statistics.median(sum(r.scaled.values()) for r in untraced))
    metrics["trace.unaccounted_s"] = (call_wall - self_total) / len(traced)
    failures = []
    if abs(call_wall - self_total) > 0.01 * call_wall:
        failures.append(f"trace: layer self times {self_total:.4f} s do not add up to "
                        f"the traced call wall time {call_wall:.4f} s")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}-seed{workload.seed}.jsonl", origin)
    return ops, untraced + traced, metrics, failures


def per_layer_units(metrics):
    from tracer import COUNTERS

    units = {}
    for name in metrics:
        if name in COUNTERS:
            units[name] = COUNTERS[name]
        else:
            units[name] = "s" if name.endswith("_s") else "count"
    return units


def main(argv=None):
    args = parse_args(argv)
    limit_threads()
    import_s = import_library()
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    workload = WORKLOADS[args.workload](args.seed, out_dir / args.workload,
                                        ROOT / "docs" / "schemas", short=args.short)
    if args.trace:
        ops, rounds, metrics, failures = measure_traced(workload, args.seconds, args.short, out_dir)
        units = per_layer_units(metrics)
    else:
        ops, rounds, metrics = measure(workload, args.seconds, import_s, args.short)
        failures = []
        units = END_TO_END_UNITS
    outputs = rounds[0].outputs
    complete = len(outputs) == len(ops)
    if complete:
        failures += workload.check(outputs)
        failures += determinism_failures(workload, rounds)
    else:
        failures.append("an operation of the first round failed; its outputs cannot be checked")
    if not args.trace:
        metrics["rmse"] = rmse(workload, outputs) if complete else float("nan")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted(rounds, ops),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
