"""Loop witnesses: every DISPROVED is replayed by ``verify_loop``.

A static loop is a proof in itself, so nonterm never runs the SLD
engine on it; the witness it carries instead (composed clause chain,
the unit clauses that solved each clause's prefix, ``H``, ``B``,
``theta``, criterion, query) must survive independent replay, and any
tampering with it must be caught.
"""

import dataclasses

import pytest

from repro.core import AnalyzerSettings, DISPROVED, UNKNOWN
from repro.core.certificate import LoopWitness
from repro.core.verifier import VerificationError, verify_loop
from repro.corpus.registry import all_programs, get_program, load
from repro.lp import SLDEngine, parse_program
from repro.lp.parser import parse_term
from repro.lp.terms import Atom, Struct, Var
from repro.methods import find_static_loops, run_method
from repro.methods import nonterm

APPEND = (
    "append([], Ys, Ys).\n"
    "append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n"
)
REACH_CALL = "r(X) :- c(X).\nc(X) :- c(s(X)).\n"
REACH_LIST = "r(X) :- q([X]).\nq([X|T]) :- q([X,X|T]).\n"
REACH_NONE = "r(X) :- e(X).\ne(a).\nc(X) :- c(s(X)).\n"
SIBLING_LOOP = "p(X) :- e, p(X).\ne.\n"
EQUATION_LOOP = "p(X) :- Y = f(Z), e(X, Y), p(Z).\ne(a, W).\n"
GROWING_SIBLING_LOOP = "p(X) :- e, p(s(X)).\ne.\n"
# The fact's W, renamed to W#<n>, meets the clause's own W in one pair.
SHARED_BASE_NAME = (
    "r(X) :- q(X).\nq(W) :- e(V), t(W, V).\ne(f(W)).\n"
    "t(X, f(b)) :- t(X, f(b)).\n"
)


def nonterm_result(program, root, mode):
    return run_method(
        program, root, mode, settings=AnalyzerSettings(method="nonterm")
    )


def witness_of(program, root, mode):
    result = nonterm_result(program, root, mode)
    assert result.status == DISPROVED
    (scc,) = result.scc_results
    return scc.witness


LOOPERS = [e.name for e in all_programs() if "nonterminating" in e.tags]


@pytest.mark.parametrize("name", LOOPERS)
def test_corpus_disproved_carries_an_accepted_witness(name):
    entry = get_program(name)
    program = load(entry)
    witness = witness_of(program, entry.root, entry.mode)
    assert isinstance(witness, LoopWitness)
    assert verify_loop(program, witness)


def test_witness_stays_out_of_the_export():
    from repro.core.export import result_to_dict

    entry = get_program("loop_mutual")
    result = nonterm_result(load(entry), entry.root, entry.mode)
    (scc,) = result_to_dict(result)["sccs"]
    assert set(scc) == {"status", "members", "reason", "method"}
    assert scc["reason"] == (
        "looping derivation: p(_0) calls p(_0) (instance of its own "
        "head); diverging witness query p(w0)"
    )


class TestMutations:
    @pytest.fixture
    def mutual(self):
        entry = get_program("loop_mutual")
        program = load(entry)
        return program, witness_of(program, entry.root, entry.mode)

    def test_accepts_the_original(self, mutual):
        program, witness = mutual
        assert witness.chain == (0, 1)
        assert verify_loop(program, witness)

    def test_wrong_theta(self, mutual):
        program, witness = mutual
        (var,) = witness.theta
        bad = dataclasses.replace(witness, theta={var: Atom("a")})
        with pytest.raises(VerificationError, match="theta"):
            verify_loop(program, bad)

    @pytest.mark.parametrize("chain", [(0,), (1,), (1, 0), (0, 1, 0)])
    def test_dropped_or_swapped_clause(self, mutual, chain):
        program, witness = mutual
        bad = dataclasses.replace(
            witness, chain=chain, prefixes=((),) * len(chain)
        )
        with pytest.raises(VerificationError, match="compose"):
            verify_loop(program, bad)

    def test_clause_out_of_range(self, mutual):
        program, witness = mutual
        with pytest.raises(VerificationError, match="no clause"):
            verify_loop(program, dataclasses.replace(witness, chain=(0, 7)))

    def test_query_not_an_instance_of_the_head(self, mutual):
        program, witness = mutual
        bad = dataclasses.replace(witness, query=Struct("q", (Atom("w0"),)))
        with pytest.raises(VerificationError, match="not an instance"):
            verify_loop(program, bad)

    def test_query_with_unbound_bound_position(self, mutual):
        program, witness = mutual
        bad = dataclasses.replace(witness, query=Struct("p", (Var("Q"),)))
        with pytest.raises(VerificationError, match="not ground"):
            verify_loop(program, bad)

    def test_impure_program(self, mutual):
        _, witness = mutual
        impure = parse_program("p(X) :- q(X).\nq(X) :- !, p(X).\n")
        with pytest.raises(VerificationError, match="cut"):
            verify_loop(impure, witness)

    def test_swap_theta_is_simultaneous(self):
        # p(X, Y) calls p(Y, X): theta = {X: Y, Y: X} must be applied
        # in one step, not chased into a cycle.
        entry = get_program("loop_swap")
        program = load(entry)
        witness = witness_of(program, entry.root, entry.mode)
        assert set(witness.theta.values()) == set(witness.theta)
        assert verify_loop(program, witness)


class TestReach:
    def test_root_reaching_a_loop_is_disproved(self):
        program = parse_program(REACH_CALL)
        result = nonterm_result(program, ("r", 1), "b")
        assert result.status == DISPROVED
        (scc,) = result.scc_results
        assert "reaches loop" in scc.reason
        assert scc.reason == (
            "looping derivation: r(_0) calls c(_0) and so reaches loop "
            "c(_1) calls c(s(_1)) (instance of its own head); diverging "
            "witness query r(w0)"
        )
        witness = scc.witness
        assert witness.entry.chain == (0,) and witness.chain == (1,)
        assert verify_loop(program, witness)

    def test_list_loop_is_reached(self):
        program = parse_program(REACH_LIST)
        witness = witness_of(program, ("r", 1), "b")
        assert witness.entry is not None
        assert verify_loop(program, witness)

    def test_unreachable_loop_stays_unknown(self):
        program = parse_program(REACH_NONE)
        base = nonterm.binary_clauses(program, ("r", 1), "b")
        assert [pair.head.functor for pair in base] == ["r"]
        assert nonterm_result(program, ("r", 1), "b").status == UNKNOWN

    def test_pair_variables_sharing_a_base_name_stay_apart(self):
        # q(W) <- t(W, f(W#<n>)) must not compose as if W#<n> were W:
        # r(a) reaches t(a, f(b)), which loops, so the root is DISPROVED.
        program = parse_program(SHARED_BASE_NAME)
        static = find_static_loops(program, ("r", 1), "b")
        for pair, loop in static.entries:
            assert pair.head.args[0] != Atom("b")
        witness = witness_of(program, ("r", 1), "b")
        assert witness.entry.chain == (0, 1, 3) and witness.chain == (3,)
        assert witness.entry.prefixes == ((), (2,), ())
        assert verify_loop(program, witness)

    def test_tampered_entry_is_rejected(self):
        program = parse_program(REACH_CALL)
        witness = witness_of(program, ("r", 1), "b")
        bad_sigma = dataclasses.replace(
            witness.entry, sigma={Var("X"): Atom("a")}
        )
        with pytest.raises(VerificationError, match="sigma"):
            verify_loop(program, dataclasses.replace(witness, entry=bad_sigma))
        bad_chain = dataclasses.replace(witness.entry, chain=(1,))
        with pytest.raises(VerificationError, match="compose"):
            verify_loop(program, dataclasses.replace(witness, entry=bad_chain))


@pytest.mark.parametrize("name,source,root,mode", [
    ("count_up", None, None, None),
    ("loop_growing", None, None, None),
    ("r/c", REACH_CALL, ("r", 1), "b"),
    ("sibling", SIBLING_LOOP, ("p", 1), "b"),
    ("equation", EQUATION_LOOP, ("p", 1), "b"),
    ("growing sibling", GROWING_SIBLING_LOOP, ("p", 1), "b"),
])
def test_static_loops_never_run_the_engine(monkeypatch, name, source, root,
                                           mode):
    def refuse(*args, **kwargs):
        raise AssertionError("the SLD engine ran on a static loop")

    monkeypatch.setattr(SLDEngine, "solve", refuse)
    if source is None:
        entry = get_program(name)
        program, root, mode = load(entry), entry.root, entry.mode
    else:
        program = parse_program(source)
    witness = witness_of(program, root, mode)
    assert isinstance(witness, LoopWitness)
    assert verify_loop(program, witness)


def test_rejected_witness_is_unknown(monkeypatch):
    def reject(program, witness):
        raise VerificationError("tampered")

    monkeypatch.setattr(nonterm, "verify_loop", reject)
    result = nonterm_result(parse_program("p(X) :- p(X).\n"), ("p", 1), "b")
    assert result.status == UNKNOWN
    assert result.scc_results[0].reason == "loop witness rejected: tampered"
    assert result.scc_results[0].witness is None


class TestPrefixWitness:
    """Loops behind a body prefix solved by unit clauses: the witness
    names the facts, and the verifier solves the prefix again."""

    def test_sibling_loop_names_its_fact(self):
        program = parse_program(SIBLING_LOOP)
        witness = witness_of(program, ("p", 1), "b")
        assert witness.chain == (0,) and witness.prefixes == ((1,),)
        assert witness.criterion == 1
        assert verify_loop(program, witness)

    def test_generalizing_call_after_an_equation(self):
        # p(a) <- p(Z): the head is an instance of the call, so only
        # the query p(a) itself is shown to diverge.
        program = parse_program(EQUATION_LOOP)
        result = nonterm_result(program, ("p", 1), "b")
        (scc,) = result.scc_results
        assert scc.reason == (
            "looping derivation: p(a) calls p(_0) (its own head is an "
            "instance of the call); diverging witness query p(a)"
        )
        witness = scc.witness
        assert witness.criterion == 2 and witness.prefixes == ((1,),)
        assert witness.query == Struct("p", (Atom("a"),))
        assert verify_loop(program, witness)

    def test_growing_loop_behind_a_prefix(self):
        program = parse_program(GROWING_SIBLING_LOOP)
        witness = witness_of(program, ("p", 1), "b")
        assert witness.prefixes == ((1,),) and witness.criterion == 1
        assert verify_loop(program, witness)

    @pytest.mark.parametrize("prefixes,message", [
        (((0,),), "not a unit clause"),
        (((7,),), "not a unit clause"),
        (((),), "compose"),
        (((1, 1),), "not a unit clause"),
        (((1,), ()), "prefixes"),
    ], ids=["rule", "out-of-range", "missing", "extra", "count"])
    def test_tampered_prefix_is_rejected(self, prefixes, message):
        program = parse_program(SIBLING_LOOP)
        witness = witness_of(program, ("p", 1), "b")
        bad = dataclasses.replace(witness, prefixes=prefixes)
        with pytest.raises(VerificationError, match=message):
            verify_loop(program, bad)

    @pytest.mark.parametrize("looping_fact_first", [True, False])
    def test_branches_past_the_limit_only_lose_loops(self,
                                                     looping_fact_first):
        # Nine facts match e(Y); only the branch through a9 loops.  Kept
        # among the first PREFIX_BRANCH_LIMIT it is found; dropped, the
        # verdict is UNKNOWN, never a wrong one.
        facts = ["e(a%d).\n" % index for index in range(1, 10)]
        if looping_fact_first:
            facts.insert(0, facts.pop())
        program = parse_program(
            "p(X) :- e(Y), q(X, Y).\nq(X, a9) :- p(X).\n" + "".join(facts)
        )
        assert len(facts) > nonterm.PREFIX_BRANCH_LIMIT
        prefixed = [
            pair for pair in nonterm.binary_clauses(program, ("p", 1), "b")
            if pair.body.functor == "q"
        ]
        assert len(prefixed) == nonterm.PREFIX_BRANCH_LIMIT
        result = nonterm_result(program, ("p", 1), "b")
        if looping_fact_first:
            assert result.status == DISPROVED
            assert verify_loop(program, result.scc_results[0].witness)
        else:
            assert result.status == UNKNOWN
            assert "within budget" in result.scc_results[0].reason

    def test_prefix_fact_that_does_not_unify(self):
        program = parse_program(
            "p(X) :- e(a, Y), p(Y).\ne(a, W).\ne(b, c).\n"
        )
        witness = witness_of(program, ("p", 1), "b")
        assert witness.prefixes == ((1,),)
        assert verify_loop(program, witness)
        bad = dataclasses.replace(witness, prefixes=((2,),))
        with pytest.raises(VerificationError, match="does not unify"):
            verify_loop(program, bad)

    def test_grounded_subsumption_query_is_rejected(self):
        # append's recursive clause passes the instance check, but only
        # its head itself would diverge, and that is not a bbf query;
        # a grounding of it terminates.
        program = parse_program(APPEND)
        head = Struct("append", (
            Struct(".", (Var("X"), Var("Xs"))), Var("Ys"),
            Struct(".", (Var("X"), Var("Zs"))),
        ))
        body = Struct("append", (Var("Xs"), Var("Ys"), Var("Zs")))
        grounded = Struct("append", (
            Struct(".", (Atom("w0"), Atom("w1"))), Atom("w2"), Var("Q"),
        ))
        bad = LoopWitness(
            chain=(1,), prefixes=((),), head=head, body=body,
            theta={
                Var("Xs"): head.args[0], Var("Ys"): Var("Ys"),
                Var("Zs"): head.args[2],
            },
            query=grounded, mode="bbf", criterion=2,
        )
        with pytest.raises(VerificationError, match="loop head"):
            verify_loop(program, bad)
        reached = dataclasses.replace(
            bad, query=head, entry=witness_of(
                parse_program(REACH_CALL), ("r", 1), "b"
            ).entry,
        )
        with pytest.raises(VerificationError, match="no entry"):
            verify_loop(program, reached)


@pytest.mark.parametrize("left,right,clash", [
    ("h(0, X)", "h(s(N), Y)", True),
    ("h([], X)", "h([A|B], Y)", True),
    ("h(a, X)", "h(b, X)", True),
    ("h(f(X), a)", "h(f(Y, Z), a)", True),
    ("h(X, X)", "h(a, b)", False),
    ("h(f(a), Y)", "h(f(b), Z)", False),
    ("h", "h", False),
])
def test_clash_is_only_a_principal_functor_mismatch(left, right, clash):
    # The closure skips a pair whose head clashes with the call; a
    # clash must mean that no renaming of the two unifies.
    assert nonterm._clash(parse_term(left), parse_term(right)) is clash


@pytest.mark.parametrize("source,root,mode", [
    (APPEND, ("append", 3), "bbf"),
    (APPEND + "nrev([], []).\n"
     "nrev([X|Xs], R) :- nrev(Xs, R1), append(R1, [X], R).\n",
     ("nrev", 2), "bf"),
], ids=["append", "nrev"])
def test_subsumption_never_grounds(source, root, mode):
    # The recursive clause of the root has a head that is an instance
    # of its call, but that head is no query in the root mode, and no
    # grounding of it loops: UNKNOWN.
    program = parse_program(source)
    assert any(
        nonterm.is_instance_of(pair.head, pair.body)
        for pair in nonterm.binary_clauses(program, root, mode)
        if pair.head.functor == root[0] == pair.body.functor
    )
    assert not find_static_loops(program, root, mode).subsumed
    assert nonterm_result(program, root, mode).status == UNKNOWN


def successor_chain(literals, step):
    """``h/1`` behind *literals* prefix calls of the fact ``p(X, s^step(X))``:
    each solved literal adds *step* successors to the last variable."""
    grown = "s(" * step + "X" + ")" * step
    calls = ", ".join("p(X%d, X%d)" % (i, i + 1) for i in range(literals))
    return "p(X, %s).\nh(X0) :- %s, h(X%d).\n" % (grown, calls, literals)


def doubling_chain(literals):
    """``h/1`` behind *literals* calls of ``p(X, f(X, X))``, each of
    which doubles the term the next one sees."""
    calls = ", ".join("p(X%d, X%d)" % (i, i + 1) for i in range(literals))
    return "p(X, f(X, X)).\nh(X0) :- %s, h(X%d).\n" % (calls, literals)


class TestBoundedBase:
    """Base pairs and prefix branches stay within TERM_NODE_LIMIT: a
    program whose prefixes grow a term past it comes back with a
    status, never an exception or exponential work."""

    @pytest.mark.parametrize("method", ["nonterm", "portfolio"])
    @pytest.mark.parametrize("source", [
        successor_chain(20, 20), doubling_chain(16), doubling_chain(24),
    ], ids=["successors", "doubling16", "doubling24"])
    def test_growing_prefix_returns_a_status(self, source, method):
        program = parse_program(source)
        result = run_method(
            program, ("h", 1), "b", settings=AnalyzerSettings(method=method)
        )
        assert result.status == UNKNOWN

    def test_base_pairs_are_bounded(self):
        program = parse_program(successor_chain(20, 20))
        base = nonterm.binary_clauses(program, ("h", 1), "b")
        assert base
        for pair in base:
            assert not nonterm._larger_than(
                (pair.head, pair.body), nonterm.TERM_NODE_LIMIT
            )
        # The branch that bound X10 to 201 nodes went, and with it
        # every literal after it.
        assert len(base) == 10

    def test_small_growth_is_kept(self):
        # Within the limit the same shape still reaches its loop.
        program = parse_program(successor_chain(3, 2))
        witness = witness_of(program, ("h", 1), "b")
        assert verify_loop(program, witness)

    def test_count_stops_at_the_limit(self):
        # A term shared 2^40 ways is counted only up to the limit.
        term = Var("X")
        for _ in range(40):
            term = Struct("f", (term, term))
        assert nonterm._larger_than((term,), nonterm.TERM_NODE_LIMIT)
        assert not nonterm._larger_than((Struct("f", (Var("X"),)),), 2)
        assert nonterm._larger_than((Struct("f", (Var("X"),)),), 1)


class TestClosureCounters:
    """The ``nonterm.static`` span says what the closure did."""

    @staticmethod
    def static_span(name):
        entry = get_program(name)
        result = nonterm_result(load(entry), tuple(entry.root), entry.mode)
        (span,) = [
            span for root in result.trace.tracer.roots
            for span in root.find("nonterm.static")
        ]
        return span

    def test_saturated_closure(self):
        span = self.static_span("seesaw")
        assert span.counters == {
            "pairs_explored": 390, "pairs_composed": 390,
            "pairs_dropped_for_size": 2,
        }
        assert span.attrs["compose_limit_hit"] is False

    def test_budgeted_closure(self):
        span = self.static_span("example_a1")
        assert span.counters["pairs_explored"] == nonterm.COMPOSE_LIMIT
        assert span.attrs["compose_limit_hit"] is True
