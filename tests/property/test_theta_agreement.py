"""Theta selection agrees with the per-edge oracle on real SCCs.

:func:`repro.core.theta.choose_thetas` lets one feasible point settle
every cross edge it shows tolerating ``theta = 1``.  Wrapping the
pipeline's reference to it collects every ``(edges, combined,
lambda)`` system ``_stage_theta`` builds for ``ring(8)``, ``ring(12)``
and each corpus program with mutual recursion, under all three norms;
each must get exactly the thetas of one LP per edge.
"""

import pytest

from repro.core import AnalyzerSettings, TerminationAnalyzer, clear_caches
from repro.core import pipeline
from repro.corpus.registry import all_programs, load
from repro.lp.parser import parse_program

from tests.interarg.test_env_soundness import NORMS, ring_program
from tests.property.theta_oracle import oracle_thetas


def cross_edges(edges):
    return [edge for edge in set(edges) if edge[0] != edge[1]]


def collect_theta_calls(monkeypatch, norm):
    """Run the rings and the corpus under *norm*; return every
    ``choose_thetas`` call that had a cross edge, with its answer."""
    calls = []
    choose = pipeline.choose_thetas

    def recording(edges, combined, lambda_system):
        thetas = choose(edges, combined, lambda_system)
        if cross_edges(edges):
            calls.append((edges, combined, lambda_system, thetas))
        return thetas

    monkeypatch.setattr(pipeline, "choose_thetas", recording)
    clear_caches()
    settings = AnalyzerSettings(norm=norm)
    queries = [(parse_program(ring_program(k)), ("p1", 1), "b")
               for k in (8, 12)]
    queries += [(load(entry), tuple(entry.root), entry.mode)
                for entry in all_programs()]
    for program, root, mode in queries:
        TerminationAnalyzer(program, settings=settings).analyze(root, mode)
    return calls


@pytest.mark.parametrize("norm", NORMS)
def test_choose_thetas_matches_per_edge_oracle(monkeypatch, norm):
    calls = collect_theta_calls(monkeypatch, norm)
    sizes = {len(cross_edges(edges)) for edges, *_ in calls}
    assert {8, 12} <= sizes  # both rings reached the stage
    assert len(calls) > 2  # and some corpus SCC with mutual recursion
    for edges, combined, lambda_system, thetas in calls:
        expected = oracle_thetas(edges, combined, lambda_system)
        assert thetas == expected
        assert list(thetas) == list(expected)  # repr order, too
