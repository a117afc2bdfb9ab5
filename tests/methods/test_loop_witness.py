"""Loop witnesses: every DISPROVED is replayed by ``verify_loop``.

A static loop is a proof in itself, so nonterm never runs the SLD
engine on it; the witness it carries instead (composed clause chain,
``H``, ``B``, ``theta``, query) must survive independent replay, and
any tampering with it must be caught.
"""

import dataclasses

import pytest

from repro.core import AnalyzerSettings, DISPROVED, UNKNOWN
from repro.core.certificate import DerivationWitness, LoopWitness
from repro.core.verifier import VerificationError, verify_loop
from repro.corpus.registry import all_programs, get_program, load
from repro.lp import parse_program
from repro.lp.terms import Atom, Struct, Var
from repro.methods import hunt_looping_derivation, run_method
from repro.methods import nonterm

REACH_CALL = "r(X) :- c(X).\nc(X) :- c(s(X)).\n"
REACH_LIST = "r(X) :- q([X]).\nq([X|T]) :- q([X,X|T]).\n"
REACH_NONE = "r(X) :- e(X).\ne(a).\nc(X) :- c(s(X)).\n"
SIBLING_LOOP = "p(X) :- e, p(X).\ne.\n"


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
        with pytest.raises(VerificationError, match="compose"):
            verify_loop(program, dataclasses.replace(witness, chain=chain))

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
        assert nonterm_result(program, ("r", 1), "b").status == UNKNOWN

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
])
def test_static_loops_never_run_the_engine(monkeypatch, name, source, root,
                                           mode):
    def refuse(*args, **kwargs):
        raise AssertionError("the SLD engine ran on a static loop")

    monkeypatch.setattr(nonterm, "hunt_looping_derivation", refuse)
    if source is None:
        entry = get_program(name)
        program, root, mode = load(entry), entry.root, entry.mode
    else:
        program = parse_program(source)
    assert nonterm_result(program, root, mode).status == DISPROVED


def test_rejected_witness_is_unknown(monkeypatch):
    def reject(program, witness):
        raise VerificationError("tampered")

    monkeypatch.setattr(nonterm, "verify_loop", reject)
    result = nonterm_result(parse_program("p(X) :- p(X).\n"), ("p", 1), "b")
    assert result.status == UNKNOWN
    assert result.scc_results[0].reason == "loop witness rejected: tampered"
    assert result.scc_results[0].witness is None


class TestDerivationWitness:
    """Loops the static closure misses are found on the SLD engine; the
    derivation that found them is replayed step by step."""

    def test_sibling_loop_carries_a_derivation(self):
        program = parse_program(SIBLING_LOOP)
        witness = witness_of(program, ("p", 1), "b")
        assert isinstance(witness, DerivationWitness)
        assert witness.chain == (0, 1) and witness.start == 0
        assert verify_loop(program, witness)

    def test_generalizing_call_after_an_equation(self):
        program = parse_program(
            "p(X) :- Y = f(Z), e(X, Y), p(Z).\ne(a, W).\n"
        )
        witness = witness_of(program, ("p", 1), "b")
        assert isinstance(witness, DerivationWitness)
        assert verify_loop(program, witness)

    @pytest.mark.parametrize("change,message", [
        (dict(start=2), "not inside"),
        (dict(chain=(0,)), "subsumes"),
        (dict(chain=(0, 0)), "does not unify"),
        (dict(start=1), "completes"),
        (dict(query=Struct("p", (Var("Q"),))), "not ground"),
    ])
    def test_tampered_derivation_is_rejected(self, change, message):
        program = parse_program(SIBLING_LOOP)
        witness = witness_of(program, ("p", 1), "b")
        with pytest.raises(VerificationError, match=message):
            verify_loop(program, dataclasses.replace(witness, **change))

    def test_ancestor_must_be_an_instance(self):
        # q(a) calls q(b): never subsumed, whatever the chain claims.
        program = parse_program("q(a) :- q(b).\nq(b).\n")
        bad = DerivationWitness(
            chain=(0,), start=0, query=Struct("q", (Atom("a"),)), mode="b",
        )
        with pytest.raises(VerificationError, match="subsumes"):
            verify_loop(program, bad)


def test_ancestor_check_skips_smaller_ancestors(monkeypatch):
    # Every call of p(X) :- p(s(X)) is larger than all its ancestors, so
    # no ancestor can be an instance of it: no matching is attempted.
    calls = []
    real = nonterm.is_instance_of

    def counting(specific, general):
        calls.append(1)
        return real(specific, general)

    monkeypatch.setattr(nonterm, "is_instance_of", counting)
    program = parse_program("p(X) :- p(s(X)).\n")
    assert hunt_looping_derivation(
        program, Struct("p", (Atom("a"),)), max_depth=50, max_steps=1000
    ) is None
    assert calls == []
    # A same-size ancestor still gets the check, and the loop is found.
    loop = hunt_looping_derivation(
        parse_program("p(X) :- p(X).\n"), Struct("p", (Atom("a"),))
    )
    assert loop is not None and calls
