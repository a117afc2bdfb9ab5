"""Unit tests for the dense integer row kernel."""

import pytest

from repro.linalg.constraints import Constraint, ConstraintSystem, EQ, GE
from repro.linalg.fourier_motzkin import FMBlowupError, eliminate_all_tracked
from repro.linalg.linexpr import LinearExpr
from repro.linalg.rows import (
    RowKernel,
    flagged_rows,
    intern_variables,
    materialize,
    normalize_row,
    split_equalities,
    substitute,
    substitute_equalities,
)

from tests.property.fm_oracle import check_projection


def x():
    return LinearExpr.of("x")


def y():
    return LinearExpr.of("y")


def z():
    return LinearExpr.of("z")


class TestInterning:
    def test_variables_in_repr_order(self):
        system = ConstraintSystem(
            [Constraint.ge(z() + y()), Constraint.ge(x())]
        )
        assert intern_variables(system) == ("x", "y", "z")

    def test_row_round_trip(self):
        constraint = Constraint.ge(2 * x() - 3 * z() + 5)
        variables = ("x", "y", "z")
        rows = flagged_rows(ConstraintSystem([constraint]), variables)
        assert rows == [(False, (2, 0, -3), 5)]
        assert materialize(rows, variables).constraints == (constraint,)
        assert Constraint.from_row(variables, (2, 0, -3), 5) == constraint

    def test_round_trip_preserves_canonical_hash(self):
        # Rows materialized from the kernel's ints must hash and
        # compare equal to constructor-built constraints.
        constraint = Constraint.ge(4 * x() - 2 * y() + 6)
        variables = ("x", "y")
        (row,) = flagged_rows(ConstraintSystem([constraint]), variables)
        assert row == (False, (2, -1), 3)
        rebuilt = Constraint.from_row(variables, row[1], row[2])
        assert rebuilt == constraint
        assert hash(rebuilt) == hash(constraint)
        assert rebuilt in ConstraintSystem([constraint])
        # A row that is not yet canonical is canonicalized on the way in.
        assert Constraint.from_row(variables, (4, -2), 6) == constraint

    def test_equality_round_trip(self):
        constraint = Constraint.eq(y(), 2 * x() + 1)
        variables = ("x", "y")
        rows = flagged_rows(ConstraintSystem([constraint]), variables)
        assert rows == [(True, (2, -1), 1)]
        assert materialize(rows, variables).constraints == (constraint,)


class TestNormalizeRow:
    def test_gcd_includes_constant(self):
        assert normalize_row((4, -6), 10) == ((2, -3), 5)

    def test_negative_constant_in_gcd(self):
        # abs() of the constant must seed the gcd: (0, 0, -5) is the
        # canonical contradiction row (0, 0, -1).
        assert normalize_row((0, 0), -5) == ((0, 0), -1)

    def test_trivially_true_rows_drop(self):
        assert normalize_row((0, 0), 3) is None
        assert normalize_row((0, 0), 0) is None

    def test_coprime_rows_untouched(self):
        assert normalize_row((2, 3), 7) == ((2, 3), 7)

    def test_equality_rows(self):
        # Sign-normalized by the first nonzero coefficient, then the
        # gcd; "0 = 0" is trivial, "0 = c" the contradiction "0 = 1".
        assert normalize_row((0, -2), 4, equality=True) == ((0, 1), -2)
        assert normalize_row((0, 0), 0, equality=True) is None
        assert normalize_row((0, 0), -3, equality=True) == ((0, 0), 1)


class TestSubstitution:
    def test_split_matches_inequalities(self):
        system = ConstraintSystem(
            [Constraint.ge(x() - 1), Constraint.eq(2 * x(), y() + 4)]
        )
        variables = intern_variables(system)
        assert split_equalities(flagged_rows(system, variables)) == [
            row[1:] for row in flagged_rows(
                ConstraintSystem(system.inequalities()), variables
            )
        ]

    def test_first_equality_solves(self):
        # Two equalities mention x; the first one (x = y) substitutes.
        system = ConstraintSystem(
            [
                Constraint.eq(x(), y()),
                Constraint.eq(x(), 2 * y() + 1),
                Constraint.ge(x() - 3),
            ]
        )
        rows = substitute(flagged_rows(system, ("x", "y")), 0)
        assert rows == [(True, (0, 1), 1), (False, (0, 1), -3)]

    def test_equalities_are_sign_normalized(self):
        # Substituting x = y + 1 into x = 2y + 3z leaves
        # -y - 3z + 1 = 0, which must flip to y + 3z - 1 = 0.
        system = ConstraintSystem(
            [
                Constraint.eq(x(), y() + 1),
                Constraint.eq(x(), 2 * y() + 3 * z()),
            ]
        )
        rows = substitute(flagged_rows(system, ("x", "y", "z")), 0)
        assert rows == [(True, (0, 1, 3), -1)]

    def test_trivial_and_contradiction_equalities(self):
        system = ConstraintSystem(
            [Constraint.eq(x(), 2), Constraint.eq(x(), 2 * y())]
        )
        rows = flagged_rows(system, ("x", "y"))
        assert substitute(rows, 0) == [(True, (0, 1), -1)]
        system = ConstraintSystem(
            [Constraint.eq(x(), 2), Constraint.eq(3 * x(), 9)]
        )
        assert substitute(flagged_rows(system, ("x",)), 0) \
            == [(True, (0,), 1)]

    def test_equality_variables_go_smallest_first(self):
        system = ConstraintSystem(
            [Constraint.eq(z(), x()), Constraint.eq(y(), x() + 1)]
        )
        remaining = {1, 2}
        rows = substitute_equalities(
            flagged_rows(system, ("x", "y", "z")), remaining
        )
        assert remaining == set()
        assert rows == []


class TestRowKernel:
    def make(self, constraints):
        system = ConstraintSystem(constraints)
        variables = intern_variables(system)
        return RowKernel(
            variables, split_equalities(flagged_rows(system, variables))
        )

    def test_counters_match_rows(self):
        kernel = self.make(
            [Constraint.ge(x() - y()), Constraint.ge(y() - 3)]
        )
        assert kernel.pos == [1, 1]
        assert kernel.neg == [0, 1]

    def test_equalities_split_into_pairs(self):
        kernel = self.make([Constraint.eq(x(), y())])
        assert kernel.rows == [((1, -1), 0), ((-1, 1), 0)]
        assert kernel.pos == kernel.neg == [1, 1]

    def test_choose_prefers_fewest_combinations(self):
        # x: 2 pos x 1 neg = 2 combinations; y: 1 x 1 = 1.
        kernel = self.make(
            [
                Constraint.ge(x() + y()),
                Constraint.ge(x() - y() + 1),
                Constraint.ge(3 - x()),
            ]
        )
        remaining = {kernel.index["x"], kernel.index["y"]}
        assert kernel.choose(remaining) == kernel.index["y"]

    def test_choose_skips_absent_variables(self):
        kernel = self.make([Constraint.ge(x() - 1)])
        assert kernel.choose({kernel.index["x"]}) == kernel.index["x"]
        kernel.eliminate(kernel.index["x"])
        assert kernel.choose({kernel.index["x"]}) is None

    def test_eliminate_updates_counters(self):
        kernel = self.make(
            [Constraint.le(x(), y()), Constraint.le(y(), 5)]
        )
        kernel.eliminate(kernel.index["y"])
        j = kernel.index["x"]
        assert kernel.pos[j] + kernel.neg[j] == 1
        system = kernel.to_system()
        assert system.satisfied_by({"x": 5})
        assert not system.satisfied_by({"x": 6})

    def test_dominance_keeps_tightest_constant(self):
        # x >= 2 dominates x >= 1 (tighter ">= 0" constant is smaller).
        kernel = self.make(
            [Constraint.ge(x() - 1), Constraint.ge(x() - 2)]
        )
        kernel._dominance()
        assert kernel.rows == [((1,), -2)]

    def test_to_system_matches_object_path(self):
        constraints = [
            Constraint.ge(2 * x() - y() + 1),
            Constraint.ge(y() - z()),
        ]
        kernel = self.make(constraints)
        assert list(kernel.to_system().constraints) == constraints


class TestTrackedProject:
    """The projection :func:`eliminate_all_tracked` runs on the kernel."""

    def test_projection_is_exact(self):
        system = ConstraintSystem(
            [
                Constraint.le(x(), y()),
                Constraint.le(y(), z()),
                Constraint.le(z(), 4),
            ]
        )
        result = eliminate_all_tracked(system, {"y", "z"})
        check_projection(system, {"y", "z"}, result)
        assert [str(row) for row in result] == ["- x + 4 >= 0"]

    def test_blowup_raises(self):
        rows = []
        for i in range(8):
            rows.append(Constraint.ge(LinearExpr.of("e") - i * x() - i))
            rows.append(Constraint.ge(i * x() + 7 - LinearExpr.of("e")))
        system = ConstraintSystem(rows)
        with pytest.raises(FMBlowupError):
            eliminate_all_tracked(system, {"e"}, max_rows=3)
        check_projection(system, {"e"}, eliminate_all_tracked(system, {"e"}))

