"""Property tests of the headline soundness invariant.

If the analyzer PROVES a (program, mode) pair, then every well-moded
query must terminate in the SLD engine — randomized over query inputs.
Also: the measure claimed by a certificate must actually decrease along
observed recursive calls.
"""

from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.lp import SLDEngine, parse_program
from repro.lp.program import Literal
from repro.lp.terms import Struct, Var
from repro.core import analyze_program
from repro.core.adornment import AdornedPredicate
from repro.sizes.norms import STRUCTURAL

from tests.property.strategies import ground_lists, pure_programs

PERM = parse_program(
    """
    perm([], []).
    perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
    append([], Ys, Ys).
    append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
    """
)

MERGE = parse_program(
    """
    merge([], Ys, Ys).
    merge(Xs, [], Xs).
    merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).
    merge([X|Xs], [Y|Ys], [Y|Zs]) :- Y =< X, merge(Ys, [X|Xs], Zs).
    """
)


@given(ground_lists(max_length=5))
@settings(max_examples=25, deadline=None)
def test_perm_terminates_on_any_ground_list(items):
    engine = SLDEngine(PERM)
    result = engine.solve(
        [Literal(Struct("perm", (items, Var("Q"))))],
        max_depth=300,
        max_steps=400000,
    )
    assert result.completed


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=5),
    st.lists(st.integers(min_value=0, max_value=9), max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_merge_terminates_and_decreases_measure(left, right):
    from repro.lp.terms import Atom, make_list

    left_term = make_list(Atom(v) for v in sorted(left))
    right_term = make_list(Atom(v) for v in sorted(right))

    engine = SLDEngine(MERGE)
    result = engine.solve(
        [Literal(Struct("merge", (left_term, right_term, Var("Z"))))],
        max_depth=200,
        max_steps=100000,
    )
    assert result.completed
    assert result.succeeded

    # Certificate invariant: with lambda = (1/2, 1/2), the weighted
    # size of (arg1, arg2) strictly decreases from the merge call to
    # its recursive sub-call, by >= 1.  The two recursive rules map
    # (xs, ys) to either ([y|ys], xs-tail) or (ys-tail, [x|xs]); check
    # the decrease directly on the ground pair.
    analysis = analyze_program(MERGE, ("merge", 3), "bbf")
    node = AdornedPredicate(("merge", 3), "bbf")
    weights = analysis.proof.proof_for(node).lambda_for(node)

    def measure(a, b):
        return (
            weights[1] * STRUCTURAL.ground_size(a)
            + weights[2] * STRUCTURAL.ground_size(b)
        )

    def simulate(a, b):
        from repro.lp.terms import list_elements, Atom as A

        elements_a, _ = list_elements(a)
        elements_b, _ = list_elements(b)
        if not elements_a or not elements_b:
            return None
        x, y = elements_a[0], elements_b[0]
        from repro.lp.terms import cons

        tail_a, _ = list_elements(a)
        if x.name <= y.name:
            return (b, _tail(a))
        return (_tail(b), a)

    def _tail(term):
        return term.args[1]

    current = (left_term, right_term)
    for _ in range(20):
        next_pair = simulate(*current)
        if next_pair is None:
            break
        assert measure(*current) >= measure(*next_pair) + 1
        current = next_pair


@given(ground_lists(max_length=4))
@settings(max_examples=20, deadline=None)
def test_certificate_measure_nonnegative(items):
    analysis = analyze_program(PERM, ("perm", 2), "bf")
    node = AdornedPredicate(("perm", 2), "bf")
    weights = analysis.proof.proof_for(node).lambda_for(node)
    value = weights[1] * STRUCTURAL.ground_size(items)
    assert value >= 0


@given(pure_programs())
@settings(max_examples=15, deadline=None)
def test_methods_never_prove_and_disprove(program):
    """The three-valued soundness invariant across provers: no program
    is PROVED terminating by any method while the non-termination
    detector DISPROVES it, and the portfolio's verdict agrees with the
    standalone run of whichever method decided it."""
    from repro.core import AnalyzerSettings, DISPROVED, PROVED
    from repro.methods import run_method

    verdicts = {}
    for name in ("argsize", "sizechange", "nonterm", "portfolio"):
        verdicts[name] = run_method(
            program, ("p", 1), "b",
            settings=AnalyzerSettings(method=name),
        ).status

    proved_any = any(
        verdicts[name] == PROVED
        for name in ("argsize", "sizechange", "portfolio")
    )
    assert not (proved_any and verdicts["nonterm"] == DISPROVED)

    # Portfolio agreement with the winning method standalone.
    if verdicts["portfolio"] == DISPROVED:
        assert verdicts["nonterm"] == DISPROVED
    if verdicts["argsize"] == PROVED:
        assert verdicts["portfolio"] == PROVED


@given(pure_programs())
@seed(20261019)
@settings(max_examples=200, deadline=None)
def test_nonterm_witness_query_never_completes(program):
    """Ground truth for DISPROVED: the witness query of every loop the
    non-termination detector reports exhausts the budgeted SLD engine,
    so no program on which the engine finishes is DISPROVED.

    The depth budget is small because some loops double their term at
    every call (``p(Z) :- q(_), p([Z|Z]).``).  This seed draws 35
    DISPROVED programs: 6 loops behind a solved prefix, 12 by the
    subsumption criterion and 6 reached from the root.
    """
    from repro.core import AnalyzerSettings, DISPROVED
    from repro.methods import run_method

    result = run_method(
        program, ("p", 1), "b", settings=AnalyzerSettings(method="nonterm")
    )
    if result.status != DISPROVED:
        return
    query = result.scc_results[0].witness.query
    run = SLDEngine(program).solve(
        [Literal(query)], max_depth=14, max_steps=3000
    )
    assert not run.completed, (str(program), query)
