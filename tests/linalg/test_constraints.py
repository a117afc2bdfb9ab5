"""Unit tests for constraints and constraint systems."""

import pytest

from repro.linalg.constraints import Constraint, ConstraintSystem, EQ, GE, LE
from repro.linalg.linexpr import LinearExpr


def x():
    return LinearExpr.of("x")


def y():
    return LinearExpr.of("y")


class TestNormalization:
    def test_le_flips_to_ge(self):
        constraint = Constraint(x() - 5, LE)
        assert constraint.relation == GE
        assert constraint.expr.coefficient("x") == -1

    def test_canonical_scaling(self):
        # 2x - 4 >= 0 and x - 2 >= 0 normalize identically.
        assert Constraint.ge(x() * 2, 4) == Constraint.ge(x(), 2)

    def test_fraction_scaling(self):
        assert Constraint.ge(x() / 2, 1) == Constraint.ge(x(), 2)

    def test_equality_sign_normalized(self):
        assert Constraint.eq(x() - y()) == Constraint.eq(y() - x())

    def test_invalid_relation(self):
        with pytest.raises(ValueError):
            Constraint(x(), "!=")


class TestConstructors:
    def test_ge(self):
        constraint = Constraint.ge(x(), 3)
        assert constraint.satisfied_by({"x": 3})
        assert not constraint.satisfied_by({"x": 2})

    def test_le(self):
        constraint = Constraint.le(x(), 3)
        assert constraint.satisfied_by({"x": 3})
        assert not constraint.satisfied_by({"x": 4})

    def test_eq(self):
        constraint = Constraint.eq(x(), y())
        assert constraint.satisfied_by({"x": 2, "y": 2})
        assert not constraint.satisfied_by({"x": 2, "y": 3})


class TestTriviality:
    def test_trivial_inequality(self):
        assert Constraint.ge(LinearExpr.constant(1)).is_trivial()

    def test_trivial_equality(self):
        assert Constraint.eq(LinearExpr.constant(0)).is_trivial()

    def test_contradiction(self):
        assert Constraint.ge(LinearExpr.constant(-1)).is_contradiction()
        assert Constraint.eq(LinearExpr.constant(2)).is_contradiction()

    def test_nontrivial(self):
        assert not Constraint.ge(x()).is_trivial()
        assert not Constraint.ge(x()).is_contradiction()


class TestOperations:
    def test_as_inequalities_for_equality(self):
        lower, upper = Constraint.eq(x(), 2).as_inequalities()
        assert lower.relation == GE
        assert upper.relation == GE
        assert lower != upper

    def test_as_inequalities_for_ge(self):
        constraint = Constraint.ge(x())
        assert constraint.as_inequalities() == (constraint,)

    def test_substitute(self):
        constraint = Constraint.ge(x(), 1).substitute({"x": y() + 1})
        assert constraint.satisfied_by({"y": 0})

    def test_rename(self):
        constraint = Constraint.ge(x()).rename({"x": "z"})
        assert constraint.variables() == {"z"}

    def test_rename_onto_one_name_adds_coefficients(self):
        constraint = Constraint.ge(x() + 2 * y(), 3).rename({"y": "x"})
        assert constraint == Constraint.ge(x(), 1)
        assert constraint.satisfied_by({"x": 1})

    def test_system_rename_onto_one_name(self):
        system = ConstraintSystem([Constraint.eq(x() + y(), 4)])
        renamed = system.rename({"y": "x"})
        assert renamed.constraints == (Constraint.eq(x(), 2),)


class TestConstraintSystem:
    def test_deduplication(self):
        system = ConstraintSystem([Constraint.ge(x()), Constraint.ge(x())])
        assert len(system) == 1

    def test_scaled_duplicates_merge(self):
        system = ConstraintSystem(
            [Constraint.ge(x(), 1), Constraint.ge(x() * 3, 3)]
        )
        assert len(system) == 1

    def test_trivial_rows_dropped(self):
        system = ConstraintSystem([Constraint.ge(LinearExpr.constant(5))])
        assert len(system) == 0

    def test_contradiction_rows_kept(self):
        system = ConstraintSystem([Constraint.ge(LinearExpr.constant(-5))])
        assert system.has_contradiction_row()

    def test_variables(self):
        system = ConstraintSystem(
            [Constraint.ge(x()), Constraint.eq(y(), 2)]
        )
        assert system.variables() == {"x", "y"}

    def test_satisfied_by(self):
        system = ConstraintSystem(
            [Constraint.ge(x(), 1), Constraint.le(x(), 3)]
        )
        assert system.satisfied_by({"x": 2})
        assert not system.satisfied_by({"x": 0})

    def test_inequalities_split_equalities(self):
        system = ConstraintSystem([Constraint.eq(x(), 1)])
        assert len(system.inequalities()) == 2

    def test_copy_independent(self):
        system = ConstraintSystem([Constraint.ge(x())])
        clone = system.copy()
        clone.add(Constraint.ge(y()))
        assert len(system) == 1
        assert len(clone) == 2

    def test_rejects_non_constraint(self):
        with pytest.raises(TypeError):
            ConstraintSystem(["x >= 0"])
