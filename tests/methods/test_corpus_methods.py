"""Corpus-wide method guarantees.

One sweep of the 42-program corpus per method, shared module-wide:

- ``method="argsize"`` is byte-identical to driving the pipeline
  directly (the adapter changes nothing);
- the portfolio strictly reduces the UNKNOWN count vs argsize, with at
  least one program DISPROVED by the non-termination detector;
- nonterm DISPROVES every ``nonterminating``-tagged entry and never a
  terminating one — the empirical ground truth is never contradicted;
- no entry is PROVED by any method while DISPROVED by nonterm;
- a DISPROVED payload does not depend on what the process analyzed
  before it.
"""

import os
import subprocess
import sys

import pytest

import repro

from repro.core import (
    AnalyzerSettings,
    DISPROVED,
    PROVED,
    TerminationAnalyzer,
    UNKNOWN,
)
from repro.corpus.registry import all_programs, get_program, load
from repro.methods import MethodRunner
from repro.serve.protocol import payload_text, payload_from_result

METHODS = ("argsize", "sizechange", "nonterm", "portfolio")


@pytest.fixture(scope="module")
def sweep():
    """{method: {entry name: AnalysisResult}} over the whole corpus."""
    results = {name: {} for name in METHODS}
    for entry in all_programs():
        program = load(entry)
        for name in METHODS:
            runner = MethodRunner(
                settings=AnalyzerSettings(method=name)
            )
            results[name][entry.name] = runner.analyze(
                program, entry.root, entry.mode
            )
    return results


def test_argsize_payload_identical_to_pipeline(sweep):
    for entry in all_programs():
        direct = TerminationAnalyzer(load(entry)).analyze(
            tuple(entry.root), entry.mode
        )
        via_method = sweep["argsize"][entry.name]
        assert payload_text(payload_from_result(via_method)) \
            == payload_text(payload_from_result(direct)), entry.name


def test_portfolio_strictly_reduces_unknowns(sweep):
    unknown_argsize = sum(
        1 for r in sweep["argsize"].values() if r.status == UNKNOWN
    )
    unknown_portfolio = sum(
        1 for r in sweep["portfolio"].values() if r.status == UNKNOWN
    )
    assert unknown_portfolio < unknown_argsize
    assert any(
        r.status == DISPROVED for r in sweep["portfolio"].values()
    )


def test_nonterm_disproves_every_tagged_looper(sweep):
    loopers = {e.name for e in all_programs() if "nonterminating" in e.tags}
    assert loopers  # the corpus ships known-diverging entries
    for name in loopers:
        assert sweep["nonterm"][name].status == DISPROVED, name
        assert sweep["portfolio"][name].status == DISPROVED, name


def test_nonterm_never_disproves_a_terminating_entry(sweep):
    for entry in all_programs():
        if "nonterminating" in entry.tags:
            continue
        assert sweep["nonterm"][entry.name].status != DISPROVED, entry.name


def test_no_entry_both_proved_and_disproved(sweep):
    for entry in all_programs():
        disproved = sweep["nonterm"][entry.name].status == DISPROVED
        proved = any(
            sweep[name][entry.name].status == PROVED for name in METHODS
        )
        assert not (proved and disproved), entry.name


def test_portfolio_agrees_with_winning_method(sweep):
    for entry in all_programs():
        portfolio = sweep["portfolio"][entry.name]
        if portfolio.status == DISPROVED:
            assert sweep["nonterm"][entry.name].status == DISPROVED
        if sweep["argsize"][entry.name].status == PROVED:
            assert portfolio.status == PROVED
        for scc in portfolio.scc_results:
            if scc.status == PROVED and scc.method == "sizechange":
                assert sweep["sizechange"][entry.name].status == PROVED


def test_portfolio_never_worse_than_argsize(sweep):
    for entry in all_programs():
        if sweep["argsize"][entry.name].status == PROVED:
            assert sweep["portfolio"][entry.name].status == PROVED, \
                entry.name


FRESH_PAYLOAD = """
from repro.core import AnalyzerSettings
from repro.corpus.registry import get_program, load
from repro.methods import MethodRunner
from repro.serve.protocol import payload_from_result, payload_text

entry = get_program("loop_mutual")
result = MethodRunner(settings=AnalyzerSettings(method="nonterm")).analyze(
    load(entry), entry.root, entry.mode
)
print(payload_text(payload_from_result(result)), end="")
"""


def test_disproved_payload_independent_of_process_history(sweep):
    """Loop search renames clauses apart through a process-global
    counter, which the module's corpus sweep has advanced by
    thousands; the reason's variables are numbered canonically, so the
    payload here is byte for byte the one a fresh process produces."""
    entry = get_program("loop_mutual")
    here = MethodRunner(
        settings=AnalyzerSettings(method="nonterm")
    ).analyze(load(entry), entry.root, entry.mode)
    assert here.status == DISPROVED
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", FRESH_PAYLOAD],
        env=dict(os.environ, PYTHONPATH=source_root),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert payload_text(payload_from_result(here)) == fresh

