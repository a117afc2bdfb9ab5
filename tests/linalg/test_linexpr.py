"""Unit tests for exact linear expressions."""

from fractions import Fraction

import pytest

from repro.linalg.linexpr import LinearExpr, variable


def x():
    return LinearExpr.of("x")


def y():
    return LinearExpr.of("y")


class TestConstruction:
    def test_zero(self):
        zero = LinearExpr()
        assert zero.is_constant()
        assert zero.const == 0

    def test_constant(self):
        assert LinearExpr.constant(5).const == 5

    def test_zero_coefficients_dropped(self):
        expr = LinearExpr({"x": 0, "y": 2})
        assert expr.variables() == {"y"}

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            LinearExpr({"x": 0.5})

    def test_string_fractions_accepted(self):
        assert LinearExpr.of("x", "1/2").coefficient("x") == Fraction(1, 2)

    def test_variable_shorthand(self):
        assert variable("x") == LinearExpr.of("x")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            x()._constant = 3


class TestArithmetic:
    def test_addition(self):
        expr = x() + y()
        assert expr.coefficient("x") == 1
        assert expr.coefficient("y") == 1

    def test_addition_with_scalar(self):
        assert (x() + 3).const == 3
        assert (3 + x()).const == 3

    def test_cancellation(self):
        assert (x() - x()).is_constant()

    def test_negation(self):
        assert (-x()).coefficient("x") == -1

    def test_subtraction(self):
        expr = x() - y()
        assert expr.coefficient("y") == -1

    def test_rsub(self):
        assert (5 - x()).const == 5

    def test_scalar_multiplication(self):
        expr = (x() + 2) * 3
        assert expr.coefficient("x") == 3
        assert expr.const == 6

    def test_division(self):
        assert (x() / 2).coefficient("x") == Fraction(1, 2)

    def test_exact_fractions(self):
        third = x() / 3
        assert (third * 3).coefficient("x") == 1  # no rounding


class TestIdentity:
    def test_equality(self):
        assert x() + y() == y() + x()

    def test_equality_with_scalar(self):
        assert LinearExpr.constant(3) == 3

    def test_hash_consistent(self):
        assert hash(x() + y()) == hash(y() + x())

    def test_usable_in_sets(self):
        assert len({x() + 1, x() + 1, x() + 2}) == 2


class TestOperations:
    def test_substitute_variable(self):
        expr = (x() * 2 + y()).substitute({"x": y() + 1})
        assert expr.coefficient("y") == 3
        assert expr.const == 2

    def test_substitute_number(self):
        assert (x() + 1).substitute({"x": 4}).const == 5

    def test_substitute_leaves_others(self):
        expr = (x() + y()).substitute({"x": 0})
        assert expr.variables() == {"y"}

    def test_evaluate(self):
        value = (x() * 2 + y() + 1).evaluate({"x": 3, "y": 4})
        assert value == 11

    def test_evaluate_exact(self):
        value = (x() / 3).evaluate({"x": 1})
        assert value == Fraction(1, 3)

    def test_rename(self):
        expr = (x() + y()).rename({"x": "z"})
        assert expr.variables() == {"z", "y"}

    def test_rename_onto_one_name_adds_coefficients(self):
        expr = LinearExpr({"x": 1, "y": 2}, 5).rename({"y": "x"})
        assert expr == LinearExpr({"x": 3}, 5)

    def test_rename_cancelling_coefficients_drops_the_name(self):
        expr = (x() - y()).rename({"x": "z", "y": "z"})
        assert expr.is_constant()

    def test_scale_to_integers(self):
        expr = (x() / 2 + LinearExpr.of("y", Fraction(1, 3))).scale_to_integers()
        assert expr.coefficient("x") == 3
        assert expr.coefficient("y") == 2

    def test_items_deterministic(self):
        expr = LinearExpr({"b": 1, "a": 2, "c": 3})
        assert [var for var, _ in expr.items()] == ["a", "b", "c"]


class TestRendering:
    def test_simple(self):
        assert str(x() + 1) == "x + 1"

    def test_negative(self):
        assert str(-x()) == "- x"

    def test_fraction_coefficient(self):
        assert "1/2" in str(x() / 2)

    def test_zero(self):
        assert str(LinearExpr()) == "0"

    def test_tuple_variables(self):
        expr = LinearExpr.of(("arg", 1))
        assert "arg.1" in str(expr)
