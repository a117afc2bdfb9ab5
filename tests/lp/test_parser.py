"""Unit tests for the Prolog parser."""

import pytest

from repro.errors import PrologSyntaxError
from repro.lp.parser import (
    MAX_TERM_DEPTH,
    parse_clause_terms,
    parse_program,
    parse_query,
    parse_term,
)
from repro.lp.terms import Atom, Struct, Var, make_list


class TestTerms:
    def test_atom(self):
        assert parse_term("foo") == Atom("foo")

    def test_variable(self):
        assert parse_term("Xs") == Var("Xs")

    def test_integer(self):
        assert parse_term("42") == Atom(42)

    def test_negative_integer(self):
        assert parse_term("-3") == Atom(-3)

    def test_compound(self):
        assert parse_term("f(a, X)") == Struct("f", (Atom("a"), Var("X")))

    def test_nested_compound(self):
        term = parse_term("f(g(h(a)))")
        assert term.functor == "f"
        assert term.args[0].functor == "g"

    def test_quoted_functor(self):
        assert parse_term("'my atom'") == Atom("my atom")

    def test_parenthesized(self):
        assert parse_term("(a)") == Atom("a")

    def test_anonymous_variables_distinct(self):
        term = parse_term("f(_, _)")
        assert term.args[0] != term.args[1]


class TestLists:
    def test_empty_list(self):
        assert parse_term("[]") == Atom("[]")

    def test_proper_list(self):
        assert parse_term("[a, b]") == make_list([Atom("a"), Atom("b")])

    def test_head_tail(self):
        term = parse_term("[X|Xs]")
        assert term.functor == "."
        assert term.args == (Var("X"), Var("Xs"))

    def test_multi_head_tail(self):
        term = parse_term("[a, b|T]")
        assert term == make_list([Atom("a"), Atom("b")], tail=Var("T"))

    def test_nested_lists(self):
        term = parse_term("[[a], [b, c]]")
        elements = term.args
        assert elements[0] == make_list([Atom("a")])

    def test_quoted_atoms_in_list(self):
        term = parse_term("['+'|C]")
        assert term.args[0] == Atom("+")

    def test_unclosed_list(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("[a, b")


class TestOperators:
    def test_infix_comparison(self):
        term = parse_term("X =< Y")
        assert term == Struct("=<", (Var("X"), Var("Y")))

    def test_arithmetic_precedence(self):
        # 1 + 2 * 3 parses as 1 + (2 * 3).
        term = parse_term("1 + 2 * 3")
        assert term.functor == "+"
        assert term.args[1].functor == "*"

    def test_left_associativity(self):
        # 1 - 2 - 3 parses as (1 - 2) - 3.
        term = parse_term("1 - 2 - 3")
        assert term.args[0].functor == "-"

    def test_rule_operator(self):
        term = parse_term("h :- b")
        assert term.functor == ":-"

    def test_conjunction_right_assoc(self):
        term = parse_term("(a, b, c)")
        assert term.functor == ","
        assert term.args[1].functor == ","

    def test_negation_prefix(self):
        term = parse_term("\\+ p(X)")
        assert term == Struct("\\+", (Struct("p", (Var("X"),)),))

    def test_prefix_minus_on_term(self):
        term = parse_term("- X")
        assert term == Struct("-", (Var("X"),))

    def test_is_operator(self):
        term = parse_term("X is Y + 1")
        assert term.functor == "is"

    def test_comma_binds_looser_than_comparison(self):
        term = parse_term("(X =< Y, p(X))")
        assert term.functor == ","
        assert term.args[0].functor == "=<"


class TestClauses:
    def test_single_fact(self):
        terms = parse_clause_terms("p(a).")
        assert terms == [Struct("p", (Atom("a"),))]

    def test_multiple_clauses(self):
        terms = parse_clause_terms("p(a). p(b).")
        assert len(terms) == 2

    def test_rule(self):
        (term,) = parse_clause_terms("p(X) :- q(X).")
        assert term.functor == ":-"

    def test_missing_period(self):
        with pytest.raises(PrologSyntaxError):
            parse_clause_terms("p(a)")

    def test_comments_between_clauses(self):
        terms = parse_clause_terms("p(a). % fact\n/* block */ p(b).")
        assert len(terms) == 2


class TestQueries:
    def test_single_goal(self):
        goals = parse_query("p(X)")
        assert len(goals) == 1

    def test_conjunction_flattened(self):
        goals = parse_query("p(X), q(X), r(X)")
        assert len(goals) == 3

    def test_trailing_period_tolerated(self):
        assert len(parse_query("p(a).")) == 1


class TestPrograms:
    def test_parse_program_roundtrip(self):
        program = parse_program(
            "append([], Ys, Ys).\n"
            "append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n"
        )
        assert len(program) == 2
        assert program.predicate("append", 3) is not None

    def test_paper_perm_rule(self):
        program = parse_program(
            "perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), "
            "perm(P1, L)."
        )
        (clause,) = program.clauses
        assert len(clause.body) == 3
        assert clause.body[2].indicator == ("perm", 2)

    def test_error_position_reported(self):
        try:
            parse_program("p(a) :- .")
        except PrologSyntaxError as error:
            assert error.line == 1
        else:
            pytest.fail("expected syntax error")


#: Term text of depth *d* in each shape the parser builds compound
#: terms from.  Parentheses add no depth, only parser recursion, which
#: the same limit bounds.
DEEP_SHAPES = {
    "arguments": lambda d: "f(" * d + "a" + ")" * d,
    "list": lambda d: "[" + ",".join(["a"] * d) + "]",
    "list_tail": lambda d: "[" + ",".join(["a"] * (d - 1)) + "|f(a)]",
    "left_assoc": lambda d: "+".join(["1"] * (d + 1)),
    "right_assoc": lambda d: "^".join(["a"] * (d + 1)),
    "prefix": lambda d: "- " * d + "a",
    "parentheses": lambda d: "(" * d + "a" + ")" * d,
}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_cap_accepted(self, shape):
        parse_term(DEEP_SHAPES[shape](MAX_TERM_DEPTH))

    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_one_above_cap_rejected(self, shape):
        with pytest.raises(PrologSyntaxError, match="nested deeper"):
            parse_term(DEEP_SHAPES[shape](MAX_TERM_DEPTH + 1))

    def test_hostile_depth_is_a_syntax_error(self):
        """Far past the interpreter's recursion limit: still a clean
        syntax error, raised before the parser recurses that deep."""
        for shape in ("arguments", "list"):
            with pytest.raises(PrologSyntaxError):
                parse_program("p(%s).\n" % DEEP_SHAPES[shape](100_000))

