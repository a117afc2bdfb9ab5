"""One pass of a library workload, in a fresh interpreter.

``python -m bench.library WORKLOAD --seed N [--trace] [--setup-only]``

Prints ``ready`` once imports are done, the inputs are built and the
warm-up programs are analyzed (the parent times set-up to that line).
Then it runs every job through one ``analyze_many(jobs=1)`` call and
prints one JSON line: per-job rows with their ``perf_counter``
windows, the pass window, peak RSS, and with ``--trace`` the per-layer
metrics.  A fresh interpreter per pass
keeps the process-wide environment and dualization caches cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

from repro.batch import BatchItem, analyze_many
from repro.core import AnalyzerSettings

from bench.inputs import (
    DECIDED,
    WARM_UP,
    check_job,
    library_jobs,
    wide_program,
)


def _settings(workload):
    if workload == "portfolio-hard":
        return AnalyzerSettings(method="portfolio")
    return AnalyzerSettings()


def _wide10_probe():
    """Known failure, left out of the timed set: wide(10) raises."""
    item = BatchItem("wide10", wide_program(10), ("r", 10), "b" * 10)
    try:
        status = analyze_many([item]).results[0].status
    except ValueError as error:
        return "ValueError: %s" % error
    return "no error (status %s)" % status


def run_pass(workload, seed, trace=False, setup_only=False):
    """Analyze the workload's jobs once; the JSON-ready pass record
    (None with *setup_only*, which stops at ``ready``)."""
    jobs = library_jobs(workload, seed)
    items = [BatchItem(job.name, job.source, job.root, job.mode)
             for job in jobs]
    settings = _settings(workload)
    analyze_many(WARM_UP, jobs=1, settings=settings)
    print("ready", flush=True)
    if setup_only:
        return None
    tracer = None
    if trace:
        from bench.tracing import LayerTracer

        tracer = LayerTracer().install()
    started = perf_counter()
    report = analyze_many(items, jobs=1, settings=settings)
    ended = perf_counter()
    rows = []
    clock = started  # items run back to back inside the one call
    for job, result in zip(jobs, report.results):
        rows.append({
            "name": job.name,
            "status": result.status,
            "error": check_job(job, result.status),
            "start": clock,
            "end": clock + result.wall_time,
        })
        clock += result.wall_time
    record = {
        "wall": [started, ended],
        "rows": rows,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided": sum(1 for row in rows if row["status"] in DECIDED),
        "considered": len(rows),
    }
    if tracer is not None:
        from bench.tracing import DRIVER_LAYER

        layers = tracer.report()
        tracer.uninstall()
        layers.update({name: 0 for name, _, _ in DRIVER_LAYER})
        layers["batch.overhead_ms"] = (
            report.wall_time - sum(r.wall_time for r in report.results)
        ) * 1000
        record["layers"] = layers
    if workload == "scaling":
        record["known_failures"] = {"wide10": _wide10_probe()}
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench.library")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, trace=args.trace,
                      setup_only=args.setup_only)
    if record is not None:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
