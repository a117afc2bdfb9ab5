"""Properties of :class:`Constraint` as the canonical integer row.

A constraint built from a rational :class:`LinearExpr` under ``>=``,
``<=`` or ``=`` is stored as integer terms, an integer constant and a
relation.  The pinned table fixes what the Fraction-based
canonicalization this row format replaced produced — ``str()``, the
``.expr`` view, ``variables()``, triviality, equality classes and
``ConstraintSystem`` dedup — for the cases that matter: the ``<=``
flip, a negative leading equality coefficient, ``0 = 1``, trivially
true rows, and terms built out of ``repr`` order.  The hypothesis
properties check random rational rows against a self-contained
Fraction reference of the same canonical form.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.constraints import (
    Constraint,
    ConstraintSystem,
    EQ,
    GE,
    LE,
)
from repro.linalg.linexpr import LinearExpr

from tests.property.strategies import fractions, linear_exprs

A1, A2 = ("arg", 1), ("arg", 2)

#: name -> (expr, relation, str(), str(.expr), variables, trivial,
#: contradiction); the strings as the Fraction-based canonicalization
#: printed them.
PINNED = {
    "insertion_order": (
        LinearExpr({A2: 2, A1: -1}), GE,
        "- arg.1 + 2*arg.2 >= 0", "- arg.1 + 2*arg.2",
        ["('arg', 1)", "('arg', 2)"], False, False,
    ),
    "le_flip": (
        LinearExpr({"x": F(1, 2), "y": F(1, 3)}, -1), LE,
        "- 3*x - 2*y + 6 >= 0", "- 3*x - 2*y + 6",
        ["'x'", "'y'"], False, False,
    ),
    "le_flip_scaled": (
        LinearExpr({"y": F(2, 3), "x": 1}, -2), LE,
        "- 3*x - 2*y + 6 >= 0", "- 3*x - 2*y + 6",
        ["'x'", "'y'"], False, False,
    ),
    "eq_negative_leading": (
        LinearExpr({"y": 4, "x": -2}, 6), EQ,
        "x - 2*y - 3 = 0", "x - 2*y - 3",
        ["'x'", "'y'"], False, False,
    ),
    "eq_positive_leading": (
        LinearExpr({"x": 1, "y": -2}, -3), EQ,
        "x - 2*y - 3 = 0", "x - 2*y - 3",
        ["'x'", "'y'"], False, False,
    ),
    "eq_fraction": (
        LinearExpr({"z": F(3, 4), "y": F(-3, 2)}, F(-3, 8)), EQ,
        "4*y - 2*z + 1 = 0", "4*y - 2*z + 1",
        ["'y'", "'z'"], False, False,
    ),
    "eq_zero_one": (
        LinearExpr.constant(-3), EQ, "1 = 0", "1", [], False, True,
    ),
    "eq_zero_one_pos": (
        LinearExpr.constant(F(5, 2)), EQ, "1 = 0", "1", [], False, True,
    ),
    "eq_trivial": (
        LinearExpr.constant(0), EQ, "0 = 0", "0", [], True, False,
    ),
    "ge_trivial": (
        LinearExpr.constant(5), GE, "1 >= 0", "1", [], True, False,
    ),
    "ge_trivial_zero": (
        LinearExpr({"x": 1}) - LinearExpr({"x": 1}), GE,
        "0 >= 0", "0", [], True, False,
    ),
    "le_trivial": (
        LinearExpr.constant(F(-7, 3)), LE, "1 >= 0", "1", [], True, False,
    ),
    "ge_contradiction": (
        LinearExpr.constant(-4), GE, "- 1 >= 0", "- 1", [], False, True,
    ),
    "ge_tuple_vars": (
        LinearExpr({("p", 10): F(-6, 5), ("p", 2): F(9, 5)}, F(3, 5)), GE,
        "- 2*p.10 + 3*p.2 + 1 >= 0", "- 2*p.10 + 3*p.2 + 1",
        ["('p', 10)", "('p', 2)"], False, False,
    ),
    "ge_unit": (
        LinearExpr({"x": -1}, 0), GE, "- x >= 0", "- x",
        ["'x'"], False, False,
    ),
}

#: The pinned cases that compare (and hash) equal.
EQUAL_PAIRS = [
    ("le_flip", "le_flip_scaled"),
    ("eq_negative_leading", "eq_positive_leading"),
    ("eq_zero_one", "eq_zero_one_pos"),
    ("ge_trivial", "le_trivial"),
]

#: ``str(ConstraintSystem(every pinned case, in table order))``.
PINNED_SYSTEM = (
    "- arg.1 + 2*arg.2 >= 0\n- 3*x - 2*y + 6 >= 0\nx - 2*y - 3 = 0\n"
    "4*y - 2*z + 1 = 0\n1 = 0\n- 1 >= 0\n- 2*p.10 + 3*p.2 + 1 >= 0\n"
    "- x >= 0"
)


def build(name):
    expr, relation = PINNED[name][:2]
    return Constraint(expr, relation)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_rendering_and_view(name):
    _, _, text, expr_text, names, trivial, contradiction = PINNED[name]
    constraint = build(name)
    assert str(constraint) == text
    assert str(constraint.expr) == expr_text
    assert sorted(repr(var) for var in constraint.variables()) == names
    assert constraint.is_trivial() is trivial
    assert constraint.is_contradiction() is contradiction
    # The view is the row with Fraction coefficients, terms in repr order.
    view = constraint.expr
    assert all(isinstance(c, F) for _, c in view.items())
    assert isinstance(view.const, F)
    assert view == LinearExpr(dict(constraint.terms), constraint.const)
    assert [var for var, _ in view.items()] == [
        var for var, _ in constraint.terms
    ]


def test_pinned_equality_classes():
    names = sorted(PINNED)
    equal = {tuple(sorted(pair)) for pair in EQUAL_PAIRS}
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            same = build(first) == build(second)
            assert same is ((first, second) in equal), (first, second)
            if same:
                assert hash(build(first)) == hash(build(second))


def test_pinned_system_dedup():
    system = ConstraintSystem(build(name) for name in PINNED)
    assert len(system) == 8
    assert str(system) == PINNED_SYSTEM
    assert sorted(map(repr, system.variables())) == [
        "'x'", "'y'", "'z'", "('arg', 1)", "('arg', 2)", "('p', 10)",
        "('p', 2)",
    ]


# -- random rows against a Fraction reference ---------------------------------


def reference(expr, relation):
    """The canonical ``(relation, items, const)`` computed the
    Fraction way: flip ``<=``, scale to integers, divide by the gcd,
    sign-normalize an equality by its first (``repr``-order) term."""
    if relation == LE:
        expr, relation = -expr, GE
    expr = expr.scale_to_integers()
    divisor = 0
    for value in [c for _, c in expr.items()] + [expr.const]:
        divisor = gcd(divisor, int(value))
    if divisor > 1:
        expr = expr / divisor
    items = expr.items()
    if relation == EQ and (items[0][1] if items else expr.const) < 0:
        expr = -expr
    items = tuple((var, int(c)) for var, c in expr.items())
    return relation, items, int(expr.const)


POOL = ("x", "y", ("arg", 1), ("arg", 10), ("arg", 2))
relations = st.sampled_from([GE, LE, EQ])


@given(linear_exprs(POOL, max_terms=4), relations)
@settings(max_examples=300)
def test_row_matches_fraction_reference(expr, relation):
    constraint = Constraint(expr, relation)
    expected_relation, items, const = reference(expr, relation)
    assert constraint.relation == expected_relation
    assert constraint.terms == items
    assert constraint.const == const
    assert all(type(c) is int and c for _, c in constraint.terms)
    assert str(constraint) == "%s %s 0" % (
        LinearExpr(dict(items), const), expected_relation
    )
    assert constraint.variables() == expr.variables()


@given(linear_exprs(POOL, max_terms=4), relations,
       fractions().filter(lambda f: f > 0))
@settings(max_examples=200)
def test_positive_scaling_is_the_same_row(expr, relation, factor):
    first = Constraint(expr, relation)
    second = Constraint(expr * factor, relation)
    assert first == second
    assert hash(first) == hash(second)
    assert str(first) == str(second)
    assert len(ConstraintSystem([first, second])) == (
        0 if first.is_trivial() else 1
    )


@given(linear_exprs(POOL, max_terms=4))
@settings(max_examples=200)
def test_le_is_ge_of_the_negation(expr):
    assert Constraint(expr, LE) == Constraint(-expr, GE)
    assert Constraint(expr, EQ) == Constraint(-expr, EQ)


@given(linear_exprs(POOL, max_terms=4), relations)
@settings(max_examples=200)
def test_from_row_round_trip(expr, relation):
    constraint = Constraint(expr, relation)
    variables = [var for var, _ in constraint.terms]
    coeffs = [c for _, c in constraint.terms]
    rebuilt = Constraint.from_row(
        variables, coeffs, constraint.const, constraint.relation
    )
    assert rebuilt == constraint
    assert Constraint(constraint.expr, constraint.relation) == constraint
    # A positive multiple of the row canonicalizes back to it.
    assert Constraint.from_row(
        variables, [3 * c for c in coeffs], 3 * constraint.const,
        constraint.relation,
    ) == constraint
