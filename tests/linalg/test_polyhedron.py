"""Unit tests for the polyhedron abstract domain."""

from fractions import Fraction

import pytest

from repro.linalg.constraints import Constraint
from repro.linalg.linexpr import LinearExpr
from repro.linalg.polyhedron import Polyhedron


def a():
    return LinearExpr.of("a")


def b():
    return LinearExpr.of("b")


def make(constraints, dims=("a", "b")):
    return Polyhedron(dims, constraints)


class TestConstruction:
    def test_top(self):
        poly = Polyhedron.top(("a",))
        assert poly.is_top()
        assert not poly.is_empty()

    def test_bottom(self):
        poly = Polyhedron.bottom(("a",))
        assert poly.is_empty()

    def test_nonnegative_orthant(self):
        poly = Polyhedron.nonnegative_orthant(("a", "b"))
        assert poly.contains_point({"a": 0, "b": 5})
        assert not poly.contains_point({"a": -1, "b": 0})

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            Polyhedron(("a",), [Constraint.ge(b())])


class TestQueries:
    def test_emptiness_via_lp(self):
        poly = make([Constraint.ge(a(), 1), Constraint.le(a(), 0)])
        assert poly.is_empty()

    def test_entails_constraint(self):
        poly = make([Constraint.ge(a(), 2)])
        assert poly.entails_constraint(Constraint.ge(a(), 1))
        assert not poly.entails_constraint(Constraint.ge(a(), 3))

    def test_entails_polyhedron(self):
        smaller = make([Constraint.ge(a(), 2), Constraint.ge(b(), 0)])
        bigger = make([Constraint.ge(a(), 0), Constraint.ge(b(), 0)])
        assert smaller.entails(bigger)
        assert not bigger.entails(smaller)

    def test_empty_entails_everything(self):
        assert Polyhedron.bottom(("a", "b")).entails(
            make([Constraint.eq(a(), 99)])
        )

    def test_equivalent(self):
        first = make([Constraint.ge(a() * 2, 4)])
        second = make([Constraint.ge(a(), 2)])
        assert first.equivalent(second)


class TestMeetProject:
    def test_meet_intersects(self):
        left = make([Constraint.ge(a(), 1)])
        right = make([Constraint.le(a(), 3)])
        both = left.meet(right)
        assert both.contains_point({"a": 2, "b": 0})
        assert not both.contains_point({"a": 4, "b": 0})

    def test_meet_can_be_empty(self):
        left = make([Constraint.ge(a(), 5)])
        right = make([Constraint.le(a(), 1)])
        assert left.meet(right).is_empty()

    def test_project_drops_dimension(self):
        poly = make(
            [Constraint.eq(a(), b()), Constraint.ge(b(), 3)]
        )
        projected = poly.project(("a",))
        assert projected.dimensions == ("a",)
        assert projected.contains_point({"a": 3})
        assert not projected.contains_point({"a": 2})

    def test_project_of_empty_system_is_contradiction(self):
        poly = make([
            Constraint.ge(a(), b() + 1), Constraint.ge(b(), a()),
            Constraint.ge(a()),
        ])
        projected = poly.project(("a",))
        assert [str(row) for row in projected.system] == ["- 1 >= 0"]
        assert projected.is_empty()

    def test_project_over_budget_decides_emptiness(self, monkeypatch):
        # Past the row budget the projection forgets every row that
        # mentions b, which would leave the nonempty 0 <= a <= 5; the
        # one emptiness LP on that path keeps it empty.
        from functools import partial

        from repro.linalg import polyhedron

        monkeypatch.setattr(
            polyhedron, "eliminate_all_tracked",
            partial(polyhedron.eliminate_all_tracked, max_rows=1),
        )
        empty = make([
            Constraint.ge(a(), b() + 1), Constraint.ge(b(), a()),
            Constraint.ge(a()), Constraint.le(a(), 5),
        ])
        projected = empty.project(("a",))
        assert projected.dimensions == ("a",)
        assert projected.is_empty()
        assert projected.system.has_contradiction_row()
        nonempty = make([
            Constraint.ge(a(), b()), Constraint.ge(b(), a()),
            Constraint.ge(a()), Constraint.le(a(), 5),
        ])
        forgotten = nonempty.project(("a",))
        assert [str(row) for row in forgotten.system] == [
            "a >= 0", "- a + 5 >= 0",
        ]

    def test_rename(self):
        poly = make([Constraint.ge(a(), 1)]).rename({"a": "z"})
        assert "z" in poly.dimensions
        assert poly.contains_point({"z": 1, "b": 0})

    def test_rename_collision_rejected(self):
        with pytest.raises(ValueError):
            make([]).rename({"a": "b"})


class TestJoin:
    def test_hull_of_point_and_ray(self):
        # {a=0} U {a>=2} hulls to {a>=0} (1-d case from append).
        first = Polyhedron(("a",), [Constraint.eq(a(), 0)])
        second = Polyhedron(("a",), [Constraint.ge(a(), 2)])
        hull = first.join(second)
        assert hull.contains_point({"a": 0})
        assert hull.contains_point({"a": 1})  # between the pieces
        assert not hull.contains_point({"a": -1})

    def test_hull_preserves_common_equality(self):
        # Both satisfy a = b; the hull must keep it.
        first = make([Constraint.eq(a(), b()), Constraint.eq(a(), 0)])
        second = make([Constraint.eq(a(), b()), Constraint.ge(a(), 2)])
        hull = first.join(second)
        assert hull.entails_constraint(Constraint.eq(a(), b()))

    def test_hull_discovers_new_facets(self):
        # {a=0, b=1} U {a=1, b=2} hull contains the segment, i.e.
        # b = a + 1 — a direction in neither input.
        first = make([Constraint.eq(a(), 0), Constraint.eq(b(), 1)])
        second = make([Constraint.eq(a(), 1), Constraint.eq(b(), 2)])
        hull = first.join(second)
        assert hull.entails_constraint(Constraint.eq(b(), a() + 1))
        assert hull.contains_point({"a": Fraction(1, 2), "b": Fraction(3, 2)})

    def test_weak_join_overapproximates(self):
        first = make([Constraint.eq(a(), 0), Constraint.eq(b(), 1)])
        second = make([Constraint.eq(a(), 1), Constraint.eq(b(), 2)])
        exact = first.join_exact(second)
        weak = first.join_weak(second)
        assert exact.entails(weak)

    def test_join_with_bottom(self):
        poly = make([Constraint.ge(a(), 1)])
        assert poly.join(Polyhedron.bottom(("a", "b"))).equivalent(poly)
        assert Polyhedron.bottom(("a", "b")).join(poly).equivalent(poly)

    def test_join_is_upper_bound(self):
        first = make([Constraint.ge(a(), 1), Constraint.le(a(), 2)])
        second = make([Constraint.ge(a(), 5), Constraint.le(a(), 6)])
        hull = first.join(second)
        assert first.entails(hull)
        assert second.entails(hull)

    def test_join_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make([]).join(Polyhedron(("z",), []))


class TestWiden:
    def test_widen_keeps_stable_constraints(self):
        old = make([Constraint.ge(a(), 0), Constraint.le(a(), 2)])
        new = make([Constraint.ge(a(), 0), Constraint.le(a(), 5)])
        widened = old.widen(new)
        assert widened.entails_constraint(Constraint.ge(a(), 0))
        # The growing upper bound must be dropped.
        assert widened.contains_point({"a": 100, "b": 0})

    def test_widen_from_bottom(self):
        new = make([Constraint.ge(a(), 1)])
        assert Polyhedron.bottom(("a", "b")).widen(new).equivalent(new)

    def test_widen_splits_equalities(self):
        # Old has a = 1; new has a >= 1: the lower half survives.
        old = make([Constraint.eq(a(), 1)])
        new = make([Constraint.ge(a(), 1)])
        widened = old.widen(new)
        assert widened.entails_constraint(Constraint.ge(a(), 1))
        assert widened.contains_point({"a": 5, "b": 0})

    def test_widened_nonempty_decides_emptiness_without_lp(self, monkeypatch):
        # The kept rows are halves of old's, so the widened polyhedron
        # contains old: nonempty, known with no LP.
        from repro.linalg import polyhedron

        old = make([Constraint.eq(a(), b() + 1), Constraint.le(a(), 2)])
        new = make([Constraint.ge(a(), b() + 1), Constraint.le(a(), 5)])
        assert not old.is_empty()
        lps = []
        original = polyhedron.is_feasible

        def counted(system):
            lps.append(system)
            return original(system)

        monkeypatch.setattr(polyhedron, "is_feasible", counted)
        widened = old.widen(new)
        assert not widened.is_empty()
        assert lps == []


class TestWeakened:
    def test_small_unchanged(self):
        poly = make([Constraint.ge(a(), 1)])
        assert poly.weakened(10) is poly

    def test_row_count_bounded(self):
        rows = [
            Constraint.ge(a() * k + b(), k) for k in range(1, 20)
        ]
        weakened = make(rows).weakened(5)
        assert len(weakened.system) <= 5

    def test_weakened_is_superset(self):
        rows = [
            Constraint.ge(a() * k + b(), k) for k in range(1, 20)
        ]
        poly = make(rows)
        assert poly.entails(poly.weakened(5))

    def test_ties_break_on_the_canonical_row(self):
        # b - a >= 0 and a + b >= 0 tie on variables, coefficients and
        # constant; which one survives must not depend on the order the
        # terms of b - a were written in.
        plus = Constraint.ge(a() + b())
        for minus in (
            Constraint(LinearExpr({"b": 1, "a": -1})),
            Constraint(LinearExpr({"a": -1, "b": 1})),
        ):
            for rows in ([plus, minus], [minus, plus]):
                kept = make(rows).weakened(1).system.constraints
                assert kept == (minus,)
