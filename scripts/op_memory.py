#!/usr/bin/env python3
"""Print the memory and wall time of each operation of one round of a perfbench
workload.

    python3 scripts/op_memory.py --workload cli-suite --seed 801

Runs the workload's setup and one round of its operations in this process,
in the order perfbench runs them, with the inputs written to a temporary
directory.  After each operation it prints ru_maxrss, the peak resident set
of the process so far, and marks the operations after which it grew: the
last marked one set the peak that perfbench reports as peak_rss_mb.  Then
it runs each operation again under tracemalloc and prints the peak of what
the operation allocated beyond what was alive when it started.  The
ru_maxrss pass runs untraced, since tracemalloc's own bookkeeping would
count in it, and the wall time printed is that pass's: the operation in the
middle of a round's times is the one nearest perfbench's call_s_p50.
"""

import argparse
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_memory(workload_name, seed, short=False):
    """[(label, ru_maxrss in MB after it, its traced peak in MB, its
    untraced wall time in s)] for the setup, which has no traced peak, and
    then each operation of one round of the workload, in its order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        workload = WORKLOADS[workload_name](seed, Path(tmp), ROOT / "docs" / "schemas",
                                            short=short)
        start = time.perf_counter()
        workload.setup()
        rows = [("setup", _maxrss_mb(), None, time.perf_counter() - start)]
        ops = workload.operations()
        rss, seconds = [], []
        for op in ops:
            start = time.perf_counter()
            op.call()
            seconds.append(time.perf_counter() - start)
            rss.append(_maxrss_mb())
        peaks = []
        for op in ops:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                op.call()
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            finally:
                tracemalloc.stop()
    return rows + [(op.label, *row) for op, row in zip(ops, zip(rss, peaks, seconds))]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["large-estimate", "monte-carlo", "cli-suite"])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    rows = op_memory(args.workload, args.seed)
    print(f"{'operation':<24} {'ru_maxrss MB':>12}   {'traced peak MB':>14} {'wall s':>8}")
    before = rows[0][1]
    for label, rss, peak, seconds in rows:
        grew = "*" if rss > before else " "
        traced = "-" if peak is None else f"{peak:.2f}"
        print(f"{label:<24} {rss:>12.1f} {grew} {traced:>14} {seconds:>8.3f}")
        before = rss


if __name__ == "__main__":
    main()
