"""Unit tests for Fourier–Motzkin elimination.

Single-variable elimination and projection onto kept variables are
``eliminate_all`` calls; the redundancy pruning is the final dominance
pass of ``eliminate_all_tracked`` and the exact ``_prune_with_lp``,
which also reduces an empty system to ``-1 >= 0``.
"""

from fractions import Fraction

import pytest

from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import (
    FMBlowupError,
    _prune_with_lp,
    eliminate_all,
    eliminate_all_tracked,
)
from repro.linalg import simplex
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import is_feasible


def x():
    return LinearExpr.of("x")


def y():
    return LinearExpr.of("y")


def z():
    return LinearExpr.of("z")


class TestEliminate:
    def test_transitivity(self):
        # x <= y, y <= 5 |- x <= 5 after eliminating y.
        system = ConstraintSystem(
            [Constraint.le(x(), y()), Constraint.le(y(), 5)]
        )
        result = eliminate_all(system, ["y"])
        assert "y" not in result.variables()
        assert result.satisfied_by({"x": 5})
        assert not result.satisfied_by({"x": 6})

    def test_equality_substitution(self):
        # y = x + 1, y <= 3 projects to x <= 2.
        system = ConstraintSystem(
            [Constraint.eq(y(), x() + 1), Constraint.le(y(), 3)]
        )
        result = eliminate_all(system, ["y"])
        assert result.satisfied_by({"x": 2})
        assert not result.satisfied_by({"x": 3})

    def test_one_sided_variable_drops_rows(self):
        # Only y >= x: choosing y large always works, projection is R.
        system = ConstraintSystem([Constraint.ge(y(), x())])
        result = eliminate_all(system, ["y"])
        assert len(result) == 0

    def test_infeasible_stays_infeasible(self):
        system = ConstraintSystem(
            [Constraint.ge(y(), x() + 1), Constraint.le(y(), x())]
        )
        result = eliminate_all(system, ["y"])
        assert result.has_contradiction_row()

    def test_feasibility_preserved(self):
        system = ConstraintSystem(
            [
                Constraint.ge(x() + y(), 2),
                Constraint.le(x() - y(), 0),
                Constraint.le(y(), 10),
            ]
        )
        result = eliminate_all(system, ["y"])
        assert is_feasible(result) == is_feasible(system)


class TestEliminateAll:
    def test_multiple_variables(self):
        system = ConstraintSystem(
            [
                Constraint.le(x(), y()),
                Constraint.le(y(), z()),
                Constraint.le(z(), 7),
            ]
        )
        result = eliminate_all(system, ["y", "z"])
        assert result.variables() == {"x"}
        assert result.satisfied_by({"x": 7})
        assert not result.satisfied_by({"x": 8})

    def test_missing_variables_ignored(self):
        system = ConstraintSystem([Constraint.ge(x(), 1)])
        result = eliminate_all(system, ["nope"])
        assert len(result) == 1

    def test_project_onto(self):
        system = ConstraintSystem(
            [Constraint.eq(y(), x()), Constraint.ge(y(), 3)]
        )
        result = eliminate_all(system, system.variables() - {"x"})
        assert result.variables() == {"x"}
        assert result.satisfied_by({"x": 3})
        assert not result.satisfied_by({"x": 2})


class TestPruneRedundant:
    def test_dominated_row_dropped(self):
        # x >= 1 makes x >= 0 redundant (same linear part).
        system = ConstraintSystem(
            [Constraint.ge(x(), 0), Constraint.ge(x(), 1)]
        )
        result = eliminate_all_tracked(system, [])
        assert len(result) == 1
        assert not result.satisfied_by({"x": Fraction(1, 2)})

    def test_lp_prune_removes_implied(self):
        # x >= 1 and y >= 1 imply x + y >= 2.
        system = ConstraintSystem(
            [
                Constraint.ge(x(), 1),
                Constraint.ge(y(), 1),
                Constraint.ge(x() + y(), 2),
            ]
        )
        result = _prune_with_lp(system)
        assert len(result) == 2

    def test_lp_prune_keeps_needed(self):
        system = ConstraintSystem(
            [Constraint.ge(x(), 1), Constraint.ge(y(), 1)]
        )
        result = _prune_with_lp(system)
        assert len(result) == 2


    def test_lp_prune_of_empty_system_is_one_lp(self, monkeypatch):
        # x >= 1, y >= x, y <= 0: the first LP finds no point, and no
        # candidate is solved after it.
        solves = []
        solve = simplex._Tableau.solve

        def counted(tableau):
            solves.append(tableau)
            return solve(tableau)

        monkeypatch.setattr(simplex._Tableau, "solve", counted)
        system = ConstraintSystem(
            [
                Constraint.ge(x(), 1),
                Constraint.ge(y(), x()),
                Constraint.le(y(), 0),
            ]
        )
        result = _prune_with_lp(system)
        assert [str(row) for row in result] == ["- 1 >= 0"]
        assert len(solves) == 1


class TestTrackedElimination:
    def test_matches_untracked_projection(self):
        system = ConstraintSystem(
            [
                Constraint.ge(x() + y(), 2),
                Constraint.le(y(), z()),
                Constraint.ge(z(), 0),
                Constraint.le(z(), 4),
                Constraint.ge(y(), 0),
            ]
        )
        tracked = eliminate_all_tracked(system, ["y", "z"])
        plain = eliminate_all(system, ["y", "z"])
        # Same solution set over x: check entailment both ways on a
        # few witness points plus feasibility agreement.
        for point in ({"x": -3}, {"x": -2}, {"x": 0}, {"x": 5}):
            assert tracked.satisfied_by(point) == plain.satisfied_by(point)

    def test_handles_equalities(self):
        system = ConstraintSystem(
            [Constraint.eq(y(), x() + 1), Constraint.le(y(), 3)]
        )
        result = eliminate_all_tracked(system, ["y"])
        assert result.satisfied_by({"x": 2})
        assert not result.satisfied_by({"x": 3})

    def test_empty_projection_is_contradiction(self):
        # y = x + 1 and y <= x: substitution leaves 1 <= 0.
        system = ConstraintSystem(
            [Constraint.eq(y(), x() + 1), Constraint.le(y(), x()),
             Constraint.ge(x(), 0)]
        )
        result = eliminate_all_tracked(system, ["y"])
        assert [str(row) for row in result] == ["- 1 >= 0"]

    def test_equalities_leave_as_inequality_pairs(self):
        system = ConstraintSystem(
            [Constraint.eq(y(), 2 * x()), Constraint.eq(z(), y() + 1)]
        )
        result = eliminate_all_tracked(system, ["y"])
        assert not any(row.is_equality() for row in result)
        assert result.satisfied_by({"x": 1, "z": 3})
        assert not result.satisfied_by({"x": 1, "z": 4})

    def test_row_budget_raises(self):
        import itertools

        # Many constraints over shared variables force row growth.
        names = ["v%d" % i for i in range(8)]
        rows = []
        for a, b in itertools.combinations(names, 2):
            rows.append(
                Constraint.ge(LinearExpr.of(a) + LinearExpr.of(b), 1)
            )
            rows.append(
                Constraint.le(LinearExpr.of(a) - LinearExpr.of(b), 3)
            )
        system = ConstraintSystem(rows)
        with pytest.raises(FMBlowupError):
            eliminate_all_tracked(system, names[:-1], max_rows=5)

    def test_chernikov_pruning_preserves_projection(self):
        # A chain x <= v1 <= v2 <= ... <= 9; projection is x <= 9.
        names = ["v%d" % i for i in range(5)]
        rows = [Constraint.le(x(), LinearExpr.of(names[0]))]
        for a, b in zip(names, names[1:]):
            rows.append(Constraint.le(LinearExpr.of(a), LinearExpr.of(b)))
        rows.append(Constraint.le(LinearExpr.of(names[-1]), 9))
        result = eliminate_all_tracked(ConstraintSystem(rows), names)
        assert result.satisfied_by({"x": 9})
        assert not result.satisfied_by({"x": 10})
