"""Differential properties: the integer simplex vs the Fraction oracle.

:mod:`repro.linalg.simplex` pivots fraction-free on integers; the
oracle (:mod:`tests.property.simplex_oracle`) is the rational tableau
it replaced.  Both take Bland's pivots, so on every problem they must
agree exactly — status, optimal value, assignment, duals, and the
pivot count — whether minimizing or maximizing, over free or
nonnegative variables, with equalities, and on infeasible and
unbounded problems alike.

``solve_lp(..., start=x0)`` pivots a different (shifted) tableau, so
it is held to the oracle's status and optimal value on the unshifted
LP, and to a phase 1 with no pivots when every row is an inequality.
The LP redundancy prune, which starts every candidate LP from one
point of the system, must keep exactly the rows the from-scratch
prune (:func:`tests.property.simplex_oracle.oracle_prune`) keeps, and
reduce an empty system to ``-1 >= 0``.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.constraints import EQ, GE, Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import _prune_with_lp
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, _Tableau, feasible_point, solve_lp,
)

from tests.property.simplex_oracle import oracle_prune, oracle_solve
from tests.property.strategies import (
    assignments, constraint_systems, fractions, linear_exprs,
)

POOL = ("x", "y", "z", "w")

nonnegativity = st.one_of(
    st.just(()),
    st.just("all"),
    st.lists(st.sampled_from(POOL), unique=True, max_size=4).map(tuple),
)


# Rows through the origin (``-x - y >= 0``, say) can leave their
# artificial basic at zero after phase 1; driving it out pivots on a
# negative entry, so phase 2 runs with a negative Bareiss scalar p.
degenerate_systems = st.tuples(
    constraint_systems(POOL, max_rows=4),
    st.lists(
        st.builds(
            lambda expr, relation: Constraint(
                expr - LinearExpr.constant(expr.const), relation
            ),
            linear_exprs(POOL, max_terms=3),
            st.sampled_from([GE, EQ]),
        ),
        min_size=1, max_size=3,
    ),
).map(lambda parts: list(parts[0]) + parts[1])


#: The zero objective is the feasibility check most callers make.
objectives = st.one_of(
    st.just(LinearExpr.constant(0)), linear_exprs(POOL, max_terms=4)
)
problems = st.one_of(constraint_systems(POOL, max_rows=7),
                     degenerate_systems)


def _fields(result):
    return (result.status, result.value, result.assignment, result.duals,
            result.pivots)


@given(objectives, problems, st.sampled_from(["min", "max"]), nonnegativity)
@settings(max_examples=600, deadline=None)
def test_integer_tableau_matches_fraction_oracle(objective, rows, sense,
                                                 nonnegative):
    got = solve_lp(objective, rows, sense=sense, nonnegative=nonnegative)
    want = oracle_solve(objective, rows, sense=sense,
                        nonnegative=nonnegative)
    # repr, not ==: Fractions must stay Fractions (their repr feeds
    # certificates and wire payloads), in the same dict order.
    assert repr(_fields(got)) == repr(_fields(want))


def test_strategies_reach_every_status():
    """The generated problems cover all three outcomes (a guard that
    the differential is not vacuously optimal-only)."""
    seen = Counter()

    @given(objectives, problems, st.sampled_from(["min", "max"]))
    @settings(max_examples=300, deadline=None, database=None)
    def collect(objective, rows, sense):
        seen[solve_lp(objective, rows, sense=sense).status] += 1

    collect()
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(seen)


# -- start= : phase 2 from a known point ---------------------------------------


def _rows_through(point, directions):
    """One row per ``(linear, relation, slack)``: an inequality whose
    value at *point* is ``slack`` (0 = tight), or an equality through
    *point*."""
    rows = []
    for linear, relation, slack in directions:
        linear = linear - LinearExpr.constant(linear.const)
        at_point = linear.evaluate(point)
        if relation == EQ:
            rows.append(Constraint(linear - at_point, EQ))
        else:
            rows.append(Constraint(linear - at_point + slack, GE))
    return rows


def _problems_through(relations):
    return st.builds(
        lambda point, directions: (point, _rows_through(point, directions)),
        assignments(POOL),
        st.lists(
            st.tuples(
                linear_exprs(POOL, max_terms=3),
                st.sampled_from(relations),
                st.one_of(st.just(Fraction(0)),
                          fractions(max_num=4).map(abs)),
            ),
            max_size=7,
        ),
    )


#: Points with the rows they satisfy: tight and slack inequalities,
#: and (in ``mixed_problems``) equalities through the point.
inequality_problems = _problems_through([GE])
mixed_problems = _problems_through([GE, GE, EQ])


@given(objectives, mixed_problems, st.sampled_from(["min", "max"]))
@settings(max_examples=500, deadline=None)
def test_start_matches_oracle_status_and_value(objective, problem, sense):
    point, rows = problem
    got = solve_lp(objective, rows, sense=sense, start=point)
    want = oracle_solve(objective, rows, sense=sense)
    assert got.status == want.status
    assert got.status != INFEASIBLE
    if got.status == OPTIMAL:
        assert got.value == want.value
        # The assignment is mapped back to the unshifted variables.
        assert all(row.satisfied_by(got.assignment) for row in rows)
        assert objective.evaluate(got.assignment) == got.value


@given(objectives, inequality_problems)
@settings(max_examples=300, deadline=None)
def test_start_needs_no_phase_1_pivot_without_equalities(objective, problem):
    point, rows = problem
    tableau = _Tableau(objective, rows, "min", (), point)
    tableau._run_simplex(tableau._phase1_costs(), allow_artificial=True)
    assert tableau._pivots == 0


def test_start_outcomes_cover_tight_rows_and_unbounded():
    """The start-point problems reach optimal and unbounded outcomes and
    include rows tight at the point (a guard against a vacuous
    differential)."""
    seen = Counter()

    @given(objectives, mixed_problems)
    @settings(max_examples=300, deadline=None, database=None)
    def collect(objective, problem):
        point, rows = problem
        seen[solve_lp(objective, rows, start=point).status] += 1
        seen["tight"] += any(
            not row.is_equality() and row.expr.evaluate(point) == 0
            for row in rows
        )
        seen["equality"] += any(row.is_equality() for row in rows)

    collect()
    assert seen[OPTIMAL] and seen[UNBOUNDED]
    assert seen["tight"] and seen["equality"]


def test_start_rejects_a_violated_row_and_bounds():
    x = LinearExpr.of("x")
    rows = [Constraint.ge(x, 1)]
    with pytest.raises(ValueError, match="violates row 0"):
        solve_lp(x, rows, start={"x": 0})
    with pytest.raises(ValueError, match="violates row 0"):
        solve_lp(x, [Constraint.eq(x, 1)], start={"x": 0})
    with pytest.raises(ValueError, match="free variables"):
        solve_lp(x, rows, nonnegative="all", start={"x": 1})


# -- the LP redundancy prune ----------------------------------------------------


#: Feasible systems (through a point), arbitrary ones (often
#: infeasible), and ones with rows through the origin.
prune_inputs = st.one_of(
    mixed_problems.map(lambda problem: ConstraintSystem(problem[1])),
    constraint_systems(POOL, max_rows=7),
    degenerate_systems.map(ConstraintSystem),
)


@given(prune_inputs)
@settings(max_examples=500, deadline=None)
def test_prune_keeps_the_oracle_rows_in_order(system):
    if feasible_point(system) is None:
        assert [str(row) for row in _prune_with_lp(system)] == ["- 1 >= 0"]
    else:
        assert list(_prune_with_lp(system)) == list(oracle_prune(system))


def test_prune_inputs_cover_feasible_infeasible_and_equalities():
    seen = Counter()

    @given(prune_inputs)
    @settings(max_examples=300, deadline=None, database=None)
    def collect(system):
        seen[feasible_point(system) is not None] += 1
        seen["equality"] += any(row.is_equality() for row in system)
        seen["pruned"] += len(_prune_with_lp(system)) < len(system)

    collect()
    assert seen[True] and seen[False]
    assert seen["equality"] and seen["pruned"]
