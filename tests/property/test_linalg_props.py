"""Property tests for the linear-algebra substrate.

Invariants:

- FM elimination preserves satisfiability and computes the exact
  projection (any solution of the projection extends; any solution of
  the original restricts);
- the tidy projection (``eliminate_all_tracked``) agrees with plain FM;
- the simplex agrees with brute-force checks and satisfies weak/strong
  duality on random instances;
- polyhedron joins are upper bounds and widening over-approximates.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FMBlowupError
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import (
    eliminate_all,
    eliminate_all_tracked,
)
from repro.linalg.linexpr import LinearExpr
from repro.linalg.polyhedron import Polyhedron
from repro.linalg.simplex import OPTIMAL, feasible_point, is_feasible, solve_lp

from tests.property.strategies import (
    assignments,
    constraint_systems,
    linear_exprs,
)

POOL = ("x", "y", "z")


@given(constraint_systems(POOL), assignments(POOL))
@settings(max_examples=120)
def test_fm_projection_contains_restrictions(system, point):
    """If point satisfies the system, its restriction satisfies the
    projection (soundness of elimination)."""
    if not system.satisfied_by(point):
        return
    projected = eliminate_all(system, ["z"])
    assert projected.satisfied_by(point)


@given(constraint_systems(POOL))
@settings(max_examples=80)
def test_fm_preserves_satisfiability(system):
    projected = eliminate_all(system, ["z"])
    assert is_feasible(system) == is_feasible(projected)


@given(constraint_systems(POOL))
@settings(max_examples=60)
def test_tracked_elimination_agrees_with_plain(system):
    plain = eliminate_all(eliminate_all(system, ["z"]), ["y"])
    tracked = eliminate_all_tracked(system, ["z", "y"])
    assert is_feasible(plain) == is_feasible(tracked)
    point = feasible_point(plain)
    if point is not None:
        full = dict(point)
        full.setdefault("x", Fraction(0))
        assert tracked.satisfied_by(full) == plain.satisfied_by(full)


@given(constraint_systems(POOL), assignments(POOL))
@settings(max_examples=80)
def test_prune_redundant_preserves_solutions(system, point):
    # Nothing to eliminate: the dominance pass and the LP prune alone.
    pruned = eliminate_all_tracked(system, [])
    assert system.satisfied_by(point) == pruned.satisfied_by(point)


@given(linear_exprs(POOL), constraint_systems(POOL))
@settings(max_examples=80, deadline=None)
def test_simplex_optimum_is_lower_bound(objective, system):
    result = solve_lp(objective, system)
    if result.status != OPTIMAL:
        return
    # The optimal point satisfies the constraints and attains the value.
    assert system.satisfied_by(result.assignment)
    assert objective.evaluate(result.assignment) == result.value


@given(linear_exprs(POOL), constraint_systems(POOL), assignments(POOL))
@settings(max_examples=80, deadline=None)
def test_simplex_minimum_below_any_feasible_point(objective, system, point):
    if not system.satisfied_by(point):
        return
    result = solve_lp(objective, system)
    assert result.status != "infeasible"
    if result.status == OPTIMAL:
        assert result.value <= objective.evaluate(point)


@given(constraint_systems(POOL))
@settings(max_examples=60, deadline=None)
def test_feasible_point_satisfies(system):
    point = feasible_point(system)
    if point is not None:
        full = {name: point.get(name, Fraction(0)) for name in POOL}
        assert system.satisfied_by(full)
    else:
        assert not is_feasible(system)


def _poly(system):
    kept = ConstraintSystem(
        c for c in system if c.variables() <= set(POOL)
    )
    return Polyhedron(POOL, kept)


@given(constraint_systems(POOL), constraint_systems(POOL))
@settings(max_examples=40, deadline=None)
def test_join_is_upper_bound(first, second):
    left, right = _poly(first), _poly(second)
    hull = left.join(right)
    assert left.entails(hull)
    assert right.entails(hull)


@given(constraint_systems(POOL), constraint_systems(POOL), assignments(POOL))
@settings(max_examples=60, deadline=None)
def test_join_contains_both_inputs_pointwise(first, second, point):
    left, right = _poly(first), _poly(second)
    hull = left.join(right)
    if left.contains_point(point) or right.contains_point(point):
        assert hull.contains_point(point)


@given(constraint_systems(POOL), constraint_systems(POOL))
@settings(max_examples=30, deadline=None)
def test_weak_join_above_exact_join(first, second):
    left, right = _poly(first), _poly(second)
    if left.is_empty() or right.is_empty():
        return
    try:
        exact = left.join_exact(right)
    except FMBlowupError:
        # The row-budget guard firing is a documented outcome of
        # join_exact on adversarial inputs (Polyhedron.join then falls
        # back to the weak join) — nothing to compare on this example.
        return
    weak = left.join_weak(right)
    assert exact.entails(weak)


@given(constraint_systems(POOL), constraint_systems(POOL))
@settings(max_examples=40, deadline=None)
def test_widen_over_approximates_newer(first, second):
    old, new = _poly(first), _poly(second)
    grown = old.join(new)  # ensure old entails grown
    widened = old.widen(grown)
    assert grown.entails(widened)
    assert old.entails(widened)
