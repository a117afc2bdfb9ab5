"""Unit tests for unification and substitutions."""

import pytest

from repro.lp.parser import parse_program, parse_term
from repro.lp.program import Clause, Literal
from repro.lp.terms import Atom, Struct, Var
from repro.lp.unify import (
    apply_subst,
    apply_subst_clause,
    compose_subst,
    match,
    occurs_in,
    rename_apart,
    rename_term_apart,
    substitute,
    unify,
)


class TestUnify:
    def test_identical_atoms(self):
        assert unify(Atom("a"), Atom("a")) == {}

    def test_distinct_atoms_fail(self):
        assert unify(Atom("a"), Atom("b")) is None

    def test_variable_binding(self):
        subst = unify(Var("X"), Atom("a"))
        assert subst == {Var("X"): Atom("a")}

    def test_symmetric_binding(self):
        subst = unify(Atom("a"), Var("X"))
        assert subst == {Var("X"): Atom("a")}

    def test_compound(self):
        subst = unify(parse_term("f(X, b)"), parse_term("f(a, Y)"))
        assert subst[Var("X")] == Atom("a")
        assert subst[Var("Y")] == Atom("b")

    def test_functor_mismatch(self):
        assert unify(parse_term("f(a)"), parse_term("g(a)")) is None

    def test_arity_mismatch(self):
        assert unify(parse_term("f(a)"), parse_term("f(a, b)")) is None

    def test_shared_variable(self):
        subst = unify(parse_term("f(X, X)"), parse_term("f(a, Y)"))
        assert apply_subst(Var("Y"), subst) == Atom("a")

    def test_deep_propagation(self):
        subst = unify(
            parse_term("f(X, g(X))"), parse_term("f(a, Z)")
        )
        assert apply_subst(Var("Z"), subst) == parse_term("g(a)")

    def test_occurs_check_blocks_cycle(self):
        assert unify(Var("X"), parse_term("f(X)"), occurs_check=True) is None

    def test_occurs_check_off(self):
        # Prolog-style: binding succeeds (cyclic term).
        subst = unify(Var("X"), parse_term("f(X)"), occurs_check=False)
        assert subst is not None

    def test_input_subst_not_mutated(self):
        base = {Var("X"): Atom("a")}
        unify(Var("Y"), Atom("b"), base)
        assert base == {Var("X"): Atom("a")}

    def test_unify_under_existing_bindings(self):
        base = {Var("X"): Atom("a")}
        assert unify(Var("X"), Atom("b"), base) is None
        extended = unify(Var("X"), Var("Y"), base)
        assert apply_subst(Var("Y"), extended) == Atom("a")

    def test_idempotence(self):
        subst = unify(
            parse_term("f(X, g(Y), Y)"), parse_term("f(h(Z), W, c)")
        )
        for term in subst.values():
            assert apply_subst(term, subst) == term

    def test_lists(self):
        subst = unify(parse_term("[X|Xs]"), parse_term("[a, b, c]"))
        assert apply_subst(Var("Xs"), subst) == parse_term("[b, c]")


class TestApplySubst:
    def test_unbound_unchanged(self):
        assert apply_subst(Var("X"), {}) == Var("X")

    def test_identity_preserved_for_unchanged_struct(self):
        term = parse_term("f(a, b)")
        assert apply_subst(term, {Var("X"): Atom("q")}) is term

    def test_clause_application(self):
        program = parse_program("p(X) :- q(X, Y).")
        clause = program.clauses[0]
        new_clause = apply_subst_clause(clause, {Var("X"): Atom("a")})
        assert new_clause.head == parse_term("p(a)")
        assert new_clause.body[0].atom.args[0] == Atom("a")


class TestComposeSubst:
    def test_sequential_equivalence(self):
        first = {Var("X"): Struct("f", (Var("Y"),))}
        second = {Var("Y"): Atom("a")}
        composed = compose_subst(first, second)
        term = parse_term("g(X, Y)")
        assert apply_subst(term, composed) == apply_subst(
            apply_subst(term, first), second
        )

    def test_trivial_bindings_dropped(self):
        composed = compose_subst({Var("X"): Var("Y")}, {Var("Y"): Var("X")})
        assert Var("X") not in composed


class TestOccursIn:
    def test_direct(self):
        assert occurs_in(Var("X"), parse_term("f(X)"), {})

    def test_through_bindings(self):
        subst = {Var("Y"): parse_term("g(X)")}
        assert occurs_in(Var("X"), parse_term("f(Y)"), subst)

    def test_absent(self):
        assert not occurs_in(Var("X"), parse_term("f(a, Y)"), {})


class TestRenameApart:
    def test_fresh_names(self):
        program = parse_program("p(X) :- q(X, Y).")
        clause = program.clauses[0]
        renamed = rename_apart(clause)
        originals = {v.name for v in clause.variables()}
        fresh = {v.name for v in renamed.variables()}
        assert originals.isdisjoint(fresh)

    def test_structure_preserved(self):
        program = parse_program("p(X, X) :- q(X).")
        renamed = rename_apart(program.clauses[0])
        # The shared variable stays shared.
        head_vars = list(renamed.head.variables())
        assert head_vars[0] == head_vars[1]

    def test_distinct_invocations_differ(self):
        program = parse_program("p(X).")
        first = rename_apart(program.clauses[0])
        second = rename_apart(program.clauses[0])
        assert first.head != second.head

    def test_rename_term_apart(self):
        term = parse_term("f(X, Y)")
        renamed = rename_term_apart(term)
        assert renamed.functor == "f"
        assert {v.name for v in renamed.variables()}.isdisjoint({"X", "Y"})

    def test_renaming_keeps_variables_sharing_a_base_apart(self):
        # W and an earlier renaming's W#3 share the base name W; merging
        # them would make the result more specific than a variant.
        term = Struct("f", (Var("W"), Var("W#3"), Var("W")))
        renamed = rename_term_apart(term)
        assert renamed.args[0] == renamed.args[2] != renamed.args[1]
        assert match(term, renamed) is not None
        assert match(renamed, term) is not None
        clause = parse_program("p(W) :- q(W).").clauses[0]
        clause = Clause(clause.head, clause.body + (
            Literal(Struct("q", (Var("W#3"),))),
        ))
        fresh = rename_apart(clause)
        assert len(fresh.variables()) == 2


class TestMatch:
    def test_instance(self):
        theta = match(parse_term("p(X, f(Y))"), parse_term("p(a, f(X))"))
        assert theta == {Var("X"): Atom("a"), Var("Y"): Var("X")}

    def test_specific_variables_are_constants(self):
        assert match(parse_term("p(a)"), parse_term("p(X)")) is None
        assert match(parse_term("p(X, X)"), parse_term("p(Y, Z)")) is None

    def test_shared_variables_swap(self):
        general, specific = parse_term("p(X, Y)"), parse_term("p(Y, X)")
        theta = match(general, specific)
        assert substitute(general, theta) == specific


class TestSubstitute:
    def test_simultaneous(self):
        # apply_subst would chase X -> Y -> X; substitute takes one step.
        swap = {Var("X"): Var("Y"), Var("Y"): Var("X")}
        assert substitute(parse_term("f(X, Y)"), swap) \
            == parse_term("f(Y, X)")
