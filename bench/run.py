"""Run the benchmark and print every metric by name with its unit.

    python3 bench/run.py --workload corpus-cold --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m bench [--seed N] [--out FILE] [--traced]

Without ``--workload`` every workload runs in turn.  An untraced run
times five fresh starts (set-up), then whole passes until
``--seconds`` have elapsed (always at least one).  A pass runs the
workload on two replicas at once, each pinned to its own CPU with a
speed probe beside it (see ``bench/probe.py``): fresh interpreters
for the library workloads, fresh daemons for serve-mixed.  Every
operation's time is converted to reference-speed seconds on its CPU,
and the faster replica's time counts.  Metrics are medians over the
passes.

The last line of standard output is one JSON object per workload:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a separate,
single-replica traced pass.  ``--out FILE`` appends the full run
record to ``FILE`` for ``bench/compare.py``, with one row per
operation (``ms`` is its best-of-two reference time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

if __package__ in (None, ""):
    # Run as a script: make the ``bench`` package importable.
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from bench import ROOT, SRC, child_env, pinned  # noqa: E402
from bench.probe import Probes, reference_seconds  # noqa: E402
from bench.stats import geomean, median  # noqa: E402
from bench.tracing import CALLERS, PER_LAYER  # noqa: E402

__all__ = ["END_TO_END", "WORKLOAD_NAMES", "main"]

#: (name, unit, better, bound): the metrics every untraced run reports.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("sweep_s", "s", "lower", 0.10),
    ("latency_ms_geomean", "ms", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("decided_share", "share", "higher", 0.01),
)

WORKLOAD_NAMES = ("corpus-cold", "portfolio-hard", "scaling", "serve-mixed")

SETUP_STARTS = 5
REPLICAS = 2
CHILD_TIMEOUT_S = 170
WORK_DIR = ".bench_work"


# -- library workloads -----------------------------------------------------------


def _library_command(workload, seed, *flags):
    return [sys.executable, "-m", "bench.library", workload,
            "--seed", str(seed)] + list(flags)


def _library_setup(workload, seed, cpu):
    """``(start, end)`` from spawning a fresh interpreter until it has
    imported the program and built the workload's inputs."""
    start = perf_counter()
    process = subprocess.Popen(
        _library_command(workload, seed, "--setup-only"), cwd=ROOT,
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        preexec_fn=pinned(cpu),
    )
    try:
        line = process.stdout.readline()
        end = perf_counter()
        process.stdout.read()
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError("%s set-up failed (exit %s)" % (workload, code))
    return start, end


def _library_pass(workload, seed, cpus, trace):
    """One pass on one fresh interpreter per CPU, all at once."""
    flags = ("--trace",) if trace else ()
    processes = [
        subprocess.Popen(
            _library_command(workload, seed, *flags), cwd=ROOT,
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, preexec_fn=pinned(cpu),
        )
        for cpu in cpus
    ]
    replicas = []
    try:
        for cpu, process in zip(cpus, processes):
            out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
            if process.returncode != 0:
                raise RuntimeError("%s pass failed (exit %d)"
                                   % (workload, process.returncode))
            record = json.loads(out.decode().strip().splitlines()[-1])
            record["cpu"] = cpu
            replicas.append(record)
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    return {"replicas": replicas,
            "known_failures": replicas[0].pop("known_failures", {})}


def _drivers(workload):
    """``(setup, pass)`` functions for *workload*."""
    if workload == "serve-mixed":
        from bench import serve

        return (lambda seed, directory, cpu: serve.setup_window(directory,
                                                                cpu),
                lambda seed, directory, cpus, trace: serve.run_pass(
                    directory, seed, cpus, trace))
    return (lambda seed, directory, cpu: _library_setup(workload, seed, cpu),
            lambda seed, directory, cpus, trace: _library_pass(
                workload, seed, cpus, trace))


# -- one run ---------------------------------------------------------------------


def _cpus():
    """Up to :data:`REPLICAS` CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))[:REPLICAS]


def _operation_ms(replicas, samples):
    """Each operation's reference-speed time in ms on the faster
    replica (0 for a request never sent)."""
    per_replica = [
        [0.0 if row["error"] == "not_sent" else 1000 * reference_seconds(
            samples.get(replica["cpu"], []), row["start"], row["end"])
         for row in replica["rows"]]
        for replica in replicas
    ]
    return [min(times) for times in zip(*per_replica)]


def _disagreements(replicas):
    """Operations whose verdict differs between replicas."""
    statuses = [[row["status"] for row in r["rows"]] for r in replicas]
    return sum(1 for row in zip(*statuses) if len(set(row)) > 1)


def _pass_metrics(workload, record, samples):
    replicas = record["replicas"]
    ms = _operation_ms(replicas, samples)
    first = replicas[0]
    for row, value in zip(first["rows"], ms):
        row["ms"] = value
    metrics = {
        "sweep_s": sum(ms) / 1000,
        "latency_ms_geomean": geomean([value for value in ms if value > 0]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in replicas),
        "decided_share": first["decided"] / first["considered"],
    }
    extra = {"wall_s": min(r["wall"][1] - r["wall"][0] for r in replicas)}
    if workload == "serve-mixed":
        from bench.serve import tier_metrics

        extra.update(tier_metrics(first["rows"], ms))
    return metrics, extra


def _cross_check(layers):
    """The traced per-caller LP counts must add up to the program's
    own ``simplex.solves`` counter."""
    traced = sum(layers["linalg.simplex.solves." + c] for c in CALLERS)
    return traced == layers["linalg.simplex.solves.total"]


def _measure(workload, seed, seconds, trace, directory, cpus):
    """Set-up windows and pass records."""
    setup, one_pass = _drivers(workload)
    setups = [] if trace else [
        (cpus[index % len(cpus)],
         setup(seed, os.path.join(directory, "setup-%d" % index),
               cpus[index % len(cpus)]))
        for index in range(SETUP_STARTS)
    ]
    passes = []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        passes.append(one_pass(
            seed, os.path.join(directory, "pass-%d" % len(passes)), cpus,
            trace,
        ))
    return setups, passes


def run_workload(workload, seed, seconds, trace, directory):
    """Set-up starts plus passes for *seconds*; the run record."""
    if trace:
        cpus = _cpus()[:1]
        setups, passes = _measure(workload, seed, seconds, True, directory,
                                  cpus)
    else:
        cpus = _cpus()
        with Probes(cpus, os.path.join(directory, "probes")) as probes:
            setups, passes = _measure(workload, seed, seconds, False,
                                      directory, cpus)
    rows = [row for record in passes for replica in record["replicas"]
            for row in replica["rows"]]
    failed = sum(1 for row in rows if row["error"])
    disagreements = sum(_disagreements(record["replicas"])
                        for record in passes)
    checked = True
    extra = {}
    if trace:
        for record in passes:
            layers = record["replicas"][0]["layers"]
            wall = record["replicas"][0]["wall"]
            layers["trace.wall_s"] = wall[1] - wall[0]
            checked = checked and _cross_check(layers)
        metrics = {name: median([record["replicas"][0]["layers"][name]
                                 for record in passes])
                   for name, _, _ in PER_LAYER}
    else:
        per_pass = [_pass_metrics(workload, record, probes.samples)
                    for record in passes]
        metrics = {"setup_s": median([
            reference_seconds(probes.samples.get(cpu, []), start, end)
            for cpu, (start, end) in setups
        ])}
        for name, _, _, _ in END_TO_END[1:]:
            metrics[name] = median([values[name] for values, _ in per_pass])
        for key in per_pass[0][1]:
            extra[key] = median([more[key] for _, more in per_pass])
        extra["setup_raw_s"] = median([end - start
                                       for _, (start, end) in setups])
    errors = {}
    for row in rows:
        if row["error"]:
            errors[row["error"]] = errors.get(row["error"], 0) + 1
    if disagreements:
        errors["replicas_disagree"] = disagreements
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "replicas": len(cpus),
        "correct": failed == 0 and not disagreements and checked,
        "cross_check": checked if trace else None,
        "attempted": len(rows),
        "failed": failed + disagreements,
        "error_share": (failed + disagreements) / len(rows),
        "errors": errors,
        "metrics": metrics,
        "extra": extra,
        "known_failures": passes[-1]["known_failures"],
        "rows": [row for record in passes
                 for row in record["replicas"][0]["rows"]],
    }


# -- output ----------------------------------------------------------------------


def _units(trace):
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return {name: unit for name, unit, _, _ in END_TO_END}


def _print_run(record):
    units = _units(record["trace"])
    workload = record["workload"]
    for name, value in record["metrics"].items():
        print("%-15s %-44s %14.6g %s" % (workload, name, value, units[name]))
    for name, value in record["extra"].items():
        print("%-15s %-44s %14.6g" % (workload, "extra." + name, value))
    print("%-15s %-44s %14.6g share (%d of %d; %s)" % (
        workload, "error_share", record["error_share"], record["failed"],
        record["attempted"], json.dumps(record["errors"], sort_keys=True)))
    if record["cross_check"] is not None:
        print("%-15s %-44s %s" % (workload, "cross_check.simplex_solves",
                                  "ok" if record["cross_check"] else "FAILED"))
    for name, outcome in record["known_failures"].items():
        print("%-15s %-44s %s" % (workload, "known_failure." + name, outcome))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }), flush=True)


def _append(path, record):
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    runs.append(record)
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle)


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure at least this long (default: "
                        "one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", help="append run records to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("bench: no program sources under %s" % SRC, file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    directory = os.path.join(ROOT, WORK_DIR, "run-%d" % os.getpid())
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    try:
        for workload in workloads:
            record = run_workload(
                workload, args.seed, args.seconds, bool(args.trace),
                os.path.join(directory, workload),
            )
            if args.out:
                _append(args.out, record)
            _print_run(record)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(directory))
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
