"""Experiment F3: ablations of the design choices DESIGN.md calls out.

- Norm choice: structural (the paper's) vs list-length vs right-spine —
  mergesort needs list-length; flatten/tree programs defeat right-spine.
- Inter-argument constraints on/off — perm, quicksort, palindrome, gcd
  all flip to UNKNOWN without them.
- (Retired: final lambda feasibility by simplex vs pure Fourier–Motzkin,
  and FM dominance pruning on/off.  Both produced corpus payloads
  byte-identical to the defaults, and both switches are gone; the
  exact simplex is the one lambda solver.)
- Polyhedron join: exact hull vs weak (constraint-candidate) join — the
  weak join cannot *discover* facet directions, so the gcd pipeline
  degrades.
"""

import time

import pytest

from repro.core import AnalyzerSettings, analyze_program
from repro.corpus.registry import get_program, load
from repro.interarg import InferenceSettings

from benchmarks.conftest import emit

NORM_SENSITIVE = ("mergesort", "flatten_tree", "tree_member", "append_bbf")
INTERARG_SENSITIVE = ("perm", "quicksort", "palindrome", "gcd_euclid")


def verdict(name, settings=None):
    entry = get_program(name)
    return analyze_program(
        load(entry), entry.root, entry.mode, settings=settings
    ).status


def test_norm_ablation(benchmark):
    rows = []
    for name in NORM_SENSITIVE:
        row = [name]
        for norm in ("structural", "list_length", "right_spine"):
            row.append(verdict(name, AnalyzerSettings(norm=norm)))
        rows.append(row)
    benchmark.pedantic(
        lambda: verdict("mergesort", AnalyzerSettings(norm="list_length")),
        rounds=1, iterations=1,
    )
    table = "\n".join(
        "%-14s structural=%-8s list_length=%-8s right_spine=%-8s"
        % tuple(row)
        for row in rows
    )
    emit(
        "F3_norms",
        "Norm ablation\n" + table + "\n",
        data=[
            {
                "program": name,
                "structural": structural,
                "list_length": list_length,
                "right_spine": right_spine,
            }
            for name, structural, list_length, right_spine in rows
        ],
    )

    by_name = {row[0]: row[1:] for row in rows}
    # Mergesort: the crossover the corpus documents.
    assert by_name["mergesort"][0] == "UNKNOWN"
    assert by_name["mergesort"][1] == "PROVED"
    # append works under every norm.
    assert set(by_name["append_bbf"]) == {"PROVED"}


def test_interarg_ablation(benchmark):
    rows = []
    for name in INTERARG_SENSITIVE:
        with_ia = verdict(name)
        without = verdict(name, AnalyzerSettings(use_interarg=False))
        rows.append((name, with_ia, without))
        assert with_ia == "PROVED"
        assert without == "UNKNOWN"
    benchmark.pedantic(
        lambda: verdict("perm", AnalyzerSettings(use_interarg=False)),
        rounds=3, iterations=1,
    )
    emit(
        "F3_interarg",
        "Inter-argument constraint ablation\n"
        + "\n".join(
            "%-14s with=%-8s without=%-8s" % row for row in rows
        )
        + "\n",
        data=[
            {"program": name, "with_interarg": with_ia, "without": without}
            for name, with_ia, without in rows
        ],
    )


def test_eq8_vs_eq9_ablation(benchmark):
    """The paper's two procedural variants: eliminate the w
    multipliers per pair (Eq. 9 route, practical) vs keep them and
    solve one big LP (Eq. 8 route, the theoretical polynomial bound).
    Identical verdicts; the table records the cost difference."""
    names = ("perm", "merge_variant", "expr_parser")
    timings = []
    for name in names:
        for route, settings in (
            ("eq9-fm", AnalyzerSettings()),
            ("eq8-lp", AnalyzerSettings(eliminate_w=False)),
        ):
            started = time.perf_counter()
            status = verdict(name, settings)
            elapsed = time.perf_counter() - started
            timings.append((name, route, status, elapsed))
            assert status == "PROVED"
    benchmark.pedantic(
        lambda: verdict("perm", AnalyzerSettings(eliminate_w=False)),
        rounds=3, iterations=1,
    )
    emit(
        "F3_eq8_vs_eq9",
        "Dual-variable elimination route (identical verdicts)\n"
        + "\n".join("%-14s %-8s %-8s %.3fs" % row for row in timings)
        + "\n",
        data=[
            {
                "program": name, "route": route,
                "verdict": status, "seconds": elapsed,
            }
            for name, route, status, elapsed in timings
        ],
    )


def test_join_strategy_ablation(benchmark):
    """Weak join loses the gcd pipeline; exact hull keeps it."""
    exact = verdict(
        "gcd_euclid",
        AnalyzerSettings(inference=InferenceSettings(join_strategy="exact")),
    )
    weak = verdict(
        "gcd_euclid",
        AnalyzerSettings(inference=InferenceSettings(join_strategy="weak")),
    )
    benchmark.pedantic(
        lambda: verdict(
            "gcd_euclid",
            AnalyzerSettings(
                inference=InferenceSettings(join_strategy="weak")
            ),
        ),
        rounds=1, iterations=1,
    )
    emit(
        "F3_join",
        "Polyhedron join strategy on gcd_euclid\n"
        "exact hull: %s\nweak join:  %s\n" % (exact, weak),
        data={"program": "gcd_euclid", "exact": exact, "weak": weak},
    )
    assert exact == "PROVED"
    assert weak == "UNKNOWN"
