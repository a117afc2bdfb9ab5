"""Experiment F7: what the staged pipeline's memoization buys.

The *environment* cache behind :mod:`repro.core.pipeline` runs one
inter-argument fixpoint per (program, norm, inference settings),
shared across query modes.

This experiment measures cold vs warm sweeps over the corpus and a
multi-mode library file, and asserts the warm verdicts are identical —
memoization must be invisible except in the timings.
"""

import time

from repro.core import AnalysisTrace, TerminationAnalyzer, clear_caches
from repro.corpus import all_programs
from repro.corpus.registry import load

from benchmarks.conftest import emit

MULTI_MODE = """
perm([], []).
perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
rev(L, R) :- rev_acc(L, [], R).
rev_acc([], A, A).
rev_acc([X|Xs], A, R) :- rev_acc(Xs, [X|A], R).
"""

MODES = [
    (("perm", 2), "bf"),
    (("append", 3), "bbf"),
    (("append", 3), "ffb"),
    (("rev", 2), "bf"),
]


def sweep_corpus():
    """Paper-method verdicts for every corpus entry, with merged trace."""
    merged = AnalysisTrace()
    verdicts = {}
    started = time.perf_counter()
    for entry in all_programs():
        program = load(entry)
        result = TerminationAnalyzer(program).analyze(entry.root, entry.mode)
        merged.merge(result.trace)
        verdicts[entry.name] = result.status
    return verdicts, merged, time.perf_counter() - started


def test_corpus_cold_vs_warm(benchmark):
    clear_caches()
    cold_verdicts, cold_trace, cold_time = sweep_corpus()
    warm_verdicts, warm_trace, warm_time = sweep_corpus()
    assert warm_verdicts == cold_verdicts  # memoization changes nothing

    # A warm sweep re-reads every environment from the process-wide
    # cache.
    assert warm_trace.stage("interarg").cache_misses == 0
    benchmark.pedantic(sweep_corpus, rounds=3, iterations=1)

    lines = [
        "%-6s %8s %14s" % ("sweep", "sec", "interarg h/m"),
        "%-6s %8.3f %14s" % (
            "cold", cold_time,
            "%d/%d" % (cold_trace.stage("interarg").cache_hits,
                       cold_trace.stage("interarg").cache_misses),
        ),
        "%-6s %8.3f %14s" % (
            "warm", warm_time,
            "%d/%d" % (warm_trace.stage("interarg").cache_hits,
                       warm_trace.stage("interarg").cache_misses),
        ),
        "speedup: %.1fx" % (cold_time / warm_time if warm_time else 0.0),
    ]
    emit("F7_pipeline_cache", "corpus sweep, cold vs warm caches\n"
         + "\n".join(lines),
         data={
             "cold_seconds": cold_time,
             "warm_seconds": warm_time,
             "cold_interarg_misses": cold_trace.stage(
                 "interarg").cache_misses,
             "warm_interarg_hits": warm_trace.stage("interarg").cache_hits,
         })


def run_modes(analyzer):
    merged = AnalysisTrace()
    statuses = []
    for root, mode in MODES:
        result = analyzer.analyze(root, mode)
        merged.merge(result.trace)
        statuses.append(result.status)
    return statuses, merged


def test_shared_analyzer_across_modes(benchmark):
    from repro.lp import parse_program

    clear_caches()
    program = parse_program(MULTI_MODE)

    # Fresh analyzer per mode (the old driver shape) vs one analyzer
    # serving all declared modes (the `--all-modes` shape).
    clear_caches()
    started = time.perf_counter()
    per_mode = AnalysisTrace()
    for root, mode in MODES:
        result = TerminationAnalyzer(program).analyze(root, mode)
        per_mode.merge(result.trace)
        clear_caches()
    fresh_time = time.perf_counter() - started

    started = time.perf_counter()
    statuses, shared = run_modes(TerminationAnalyzer(program))
    shared_time = time.perf_counter() - started

    assert statuses == ["PROVED"] * len(MODES)
    assert per_mode.stage("interarg").cache_hits == 0
    assert shared.stage("interarg").cache_hits == len(MODES) - 1

    def bench():
        clear_caches()
        return run_modes(TerminationAnalyzer(program))

    benchmark.pedantic(bench, rounds=3, iterations=1)

    lines = [
        "%-18s %8s %14s" % ("driver", "sec", "interarg h/m"),
        "%-18s %8.3f %14s" % (
            "fresh per mode", fresh_time,
            "%d/%d" % (per_mode.stage("interarg").cache_hits,
                       per_mode.stage("interarg").cache_misses),
        ),
        "%-18s %8.3f %14s" % (
            "shared analyzer", shared_time,
            "%d/%d" % (shared.stage("interarg").cache_hits,
                       shared.stage("interarg").cache_misses),
        ),
    ]
    emit("F7_shared_analyzer", "4 modes of a 3-predicate library\n"
         + "\n".join(lines),
         data={
             "fresh_seconds": fresh_time,
             "shared_seconds": shared_time,
             "shared_interarg_hits": shared.stage("interarg").cache_hits,
         })
