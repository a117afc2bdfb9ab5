"""The composition closure agrees with the rebuild-everything oracle.

:func:`repro.methods.nonterm.find_static_loops` reuses a pair's head
when the unifier misses it and canonicalizes only what changed.  On
every corpus program and on fixed-seed generated programs it must find
what :func:`tests.property.closure_oracle.oracle_static_loops` finds:
the same loops, entries and subsumed pairs, each with the same variant
key, chain and prefixes, in the same order, after exploring as many
pairs.  The default generated programs put facts behind body prefixes;
the recursive ones make every clause call ``p`` or ``q``, so their
compositions bind head variables and rebuild heads.
"""

import pytest
from hypothesis import given, seed, settings

from repro.corpus.registry import all_programs, load
from repro.methods.nonterm import find_static_loops

from tests.property.closure_oracle import oracle_static_loops, variant_key
from tests.property.strategies import pure_programs


def described(pair):
    return variant_key(pair.head, pair.body)[0], pair.chain, pair.prefixes


def summary(static):
    return (
        static.explored,
        [described(loop) for loop in static.loops],
        [(described(pair), described(loop))
         for pair, loop in static.entries],
        [described(pair) for pair in static.subsumed],
    )


def assert_agrees(program, root, mode):
    found = find_static_loops(program, root, mode)
    expected = oracle_static_loops(program, root, mode)
    assert summary(found) == summary(expected)


@pytest.mark.parametrize(
    "entry", all_programs(), ids=lambda entry: entry.name
)
def test_corpus_closure_matches_the_oracle(entry):
    assert_agrees(load(entry), tuple(entry.root), entry.mode)


@given(pure_programs(max_clauses=5))
@seed(20261020)
@settings(max_examples=150, deadline=None)
def test_generated_closure_matches_the_oracle(program):
    assert_agrees(program, ("p", 1), "b")


@given(pure_programs(max_clauses=5, min_body=1))
@seed(20261020)
@settings(max_examples=150, deadline=None)
def test_generated_recursive_closure_matches_the_oracle(program):
    assert_agrees(program, ("p", 1), "b")
