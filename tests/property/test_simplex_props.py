"""Differential properties: the integer simplex vs the Fraction oracle.

:mod:`repro.linalg.simplex` pivots fraction-free on integers; the
oracle (:mod:`tests.property.simplex_oracle`) is the rational tableau
it replaced.  Both take Bland's pivots, so on every problem they must
agree exactly — status, optimal value, assignment, duals, and the
pivot count — whether minimizing or maximizing, over free or
nonnegative variables, with equalities, and on infeasible and
unbounded problems alike.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.constraints import EQ, GE, Constraint
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from tests.property.simplex_oracle import oracle_solve
from tests.property.strategies import constraint_systems, linear_exprs

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
