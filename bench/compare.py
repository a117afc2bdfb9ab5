"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python bench/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``--out`` (one or more
runs of each workload).  For every end-to-end metric and workload the
table gives each set's median and quartiles, its spread (quartile
distance over median), and the change of B's median against A's.  A
metric fails when B's median is worse than A's by more than the
metric's bound; it is *unresolved* when A's own spread is wider than
the bound.  Where a file also holds traced runs, the tracing overhead
(traced over untraced raw pass wall time) and the LP cross-check are
listed too.  Exits 1 when any metric fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from bench import ROOT  # noqa: E402
from bench.stats import median, quartiles, spread  # noqa: E402


def load_runs(path):
    """Run records of one ``--out`` file, grouped by (workload, trace)."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped = {}
    for run in runs:
        grouped.setdefault((run["workload"], bool(run["trace"])), []).append(
            run)
    return grouped


def worse_by(before, after, better):
    """How much worse *after* is than *before*, as a share of *before*
    (negative when it is better)."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(a_runs, b_runs, end_to_end):
    """Table rows and the number of failed metric x workload pairs."""
    rows = []
    failures = 0
    workloads = sorted({w for w, trace in a_runs if not trace}
                       & {w for w, trace in b_runs if not trace})
    for workload in workloads:
        a = a_runs[(workload, False)]
        b = b_runs[(workload, False)]
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            a_values = [run["metrics"][name] for run in a]
            b_values = [run["metrics"][name] for run in b]
            worse = worse_by(median(a_values), median(b_values),
                             metric["better"])
            if worse > bound:
                verdict = "FAIL"
                failures += 1
            elif spread(a_values) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, quartiles(a_values),
                         spread(a_values), quartiles(b_values),
                         spread(b_values), worse, bound, verdict))
    return rows, failures


def overheads(runs):
    """(workload, traced/untraced wall ratio, cross-checks ok)."""
    out = []
    for workload, trace in sorted(runs):
        if not trace or (workload, False) not in runs:
            continue
        traced = median([run["metrics"]["trace.wall_s"]
                         for run in runs[(workload, True)]])
        plain = median([run["extra"]["wall_s"]
                        for run in runs[(workload, False)]])
        checked = all(run["cross_check"] for run in runs[(workload, True)])
        out.append((workload, traced / plain, checked))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    rows, failures = compare(a_runs, b_runs, end_to_end)
    print("%-15s %-19s %-32s %-7s %-32s %-7s %8s %6s  %s" % (
        "workload", "metric", "A q1 / median / q3", "A sprd",
        "B q1 / median / q3", "B sprd", "B worse", "bound", "verdict"))
    for (workload, name, a_q, a_spread, b_q, b_spread, worse, bound,
         verdict) in rows:
        print("%-15s %-19s %-32s %6.2f%% %-32s %6.2f%% %7.2f%% %5.0f%%  %s" % (
            workload, name, "%.5g / %.5g / %.5g" % a_q, 100 * a_spread,
            "%.5g / %.5g / %.5g" % b_q, 100 * b_spread, 100 * worse,
            100 * bound, verdict))
    for label, runs in (("A", a_runs), ("B", b_runs)):
        for workload, ratio, checked in overheads(runs):
            print("%s %-15s tracing overhead %.3fx, LP cross-check %s" % (
                label, workload, ratio, "ok" if checked else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
