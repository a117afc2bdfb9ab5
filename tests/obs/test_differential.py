"""Observability must not change analysis results.

The acceptance gate: the full 42-program corpus produces byte-identical
verdicts — and identical structural stage totals — whether the metrics
registry is recording or switched off.  Wall times legitimately differ;
everything the paper's method computes must not.
"""

from repro.batch import analyze_many
from repro.core.pipeline import clear_caches
from repro.corpus import all_programs
from repro.obs import METRICS

STRUCTURAL = ("calls", "rows_in", "rows_out", "cache_hits",
              "cache_misses", "pivots")


def _sweep():
    clear_caches()
    report = analyze_many(all_programs(), jobs=1)
    verdicts = [(r.name, r.mode, r.status, tuple(r.reasons))
                for r in report.results]
    stages = {
        stage.stage: tuple(getattr(stage, field) for field in STRUCTURAL)
        for stage in report.trace.stages()
    }
    return verdicts, stages


def test_corpus_identical_with_observability_off():
    entries = all_programs()
    assert len(entries) == 42

    previous = METRICS.set_enabled(True)
    try:
        on_verdicts, on_stages = _sweep()
        METRICS.set_enabled(False)
        off_verdicts, off_stages = _sweep()
    finally:
        METRICS.set_enabled(previous)
        clear_caches()

    assert on_verdicts == off_verdicts
    assert on_stages == off_stages


def test_disabled_registry_records_nothing():
    """The kill switch really kills: an analysis with METRICS off
    leaves the registry's counters untouched."""
    from repro.core import analyze_program
    from repro.lp import parse_program

    program = parse_program(
        "append([], Y, Y).\n"
        "append([X|Xs], Y, [X|Zs]) :- append(Xs, Y, Zs).\n"
    )
    clear_caches()
    previous = METRICS.set_enabled(False)
    before = METRICS.snapshot()
    try:
        result = analyze_program(program, ("append", 3), "bbf")
    finally:
        METRICS.set_enabled(previous)
        clear_caches()
    assert result.proved
    assert METRICS.snapshot() == before
