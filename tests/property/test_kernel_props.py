"""Differential properties: integer row kernel vs the object oracle.

The kernel's contract is *byte-identity*, not mere equivalence: for
every projection the kernel and the object pipeline kept in
``fm_oracle.py`` must produce the same constraint rows, in the same
canonical form, in the same insertion order.  These tests compare
``.constraints`` tuples directly (order-sensitive) on random systems
(with and without equalities, including systems every target of which
is substituted away so ``=`` rows survive) and on systems the analysis
really builds — the dualized Eq. 8 pairs of ``perm`` — and on the
lifted convex-hull systems of the F8 workload.
The tidy projection of ``eliminate_all_tracked`` (infeasible inputs
included) must in addition be the oracle elimination's point set,
irredundant, and ``-1 >= 0`` when empty.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AnalyzerSettings, TerminationAnalyzer, clear_caches
from repro.core import dual
from repro.linalg.constraints import Constraint, ConstraintSystem, EQ
from repro.linalg.fourier_motzkin import (
    eliminate_all,
    eliminate_all_tracked,
)
from repro.linalg.linexpr import LinearExpr
from repro.lp import parse_program

from benchmarks.test_bench_kernel import hull_lift_workload
from tests.property.fm_oracle import (
    check_projection,
    oracle_eliminate_all,
    oracle_project,
)
from tests.property.strategies import (
    constraint_systems,
    fractions,
    linear_exprs,
)

POOL = ("x", "y", "z", "w")


def identical(first, second):
    """Order-sensitive row-for-row equality of two systems."""
    return list(first.constraints) == list(second.constraints)


@st.composite
def defined_targets(draw):
    """``(system, targets)`` where every target sits in an equality.

    Each target gets one defining equality over ``x`` and ``y``,
    inserted among random rows over the whole pool (which may carry
    further equalities on the targets), so elimination is substitution
    only and the ``=`` rows over ``x`` and ``y`` survive it.
    """
    rows = list(draw(constraint_systems(POOL, max_rows=5)))
    targets = draw(
        st.lists(st.sampled_from(("z", "w")), min_size=1, max_size=2,
                 unique=True)
    )
    for target in targets:
        coeff = draw(fractions().filter(bool))
        rest = draw(linear_exprs(("x", "y")))
        position = draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(
            position, Constraint(LinearExpr.of(target, coeff) - rest, EQ)
        )
    return ConstraintSystem(rows), targets


@given(constraint_systems(POOL), st.sampled_from(POOL))
@settings(max_examples=120)
def test_eliminate_byte_identical(system, var):
    assert identical(
        eliminate_all(system, [var]),
        oracle_eliminate_all(system, [var]),
    )


@given(defined_targets())
@settings(max_examples=120, deadline=None)
def test_substitution_only_byte_identical(case):
    system, targets = case
    assert identical(
        eliminate_all(system, targets),
        oracle_eliminate_all(system, targets),
    )


def test_substitution_keeps_equalities():
    """Substituting every target away leaves the other ``=`` rows as
    equalities, canonical and in order."""
    x, y, z = (LinearExpr.of(name) for name in "xyz")
    system = ConstraintSystem([
        Constraint.eq(2 * z, x - y + 4),
        Constraint.eq(y, 3 * x),
        Constraint.ge(z, 1),
        Constraint.eq(x + z, 5),
    ])
    result = eliminate_all(system, ["z"])
    assert identical(result, oracle_eliminate_all(system, ["z"]))
    assert [c.relation for c in result] == [EQ, ">=", EQ]
    assert "z" not in result.variables()


@given(
    constraint_systems(POOL),
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_eliminate_all_byte_identical(system, targets):
    assert identical(
        eliminate_all(system, targets),
        oracle_eliminate_all(system, targets),
    )


X, Y = LinearExpr.of("x"), LinearExpr.of("y")

# Dominated rows and no target present: the final dominance pass fixes
# which rows survive and in what order — ahead of the LP prune (three
# rows), and in its place past 60 rows (61 after dominance).
DOMINATED = ConstraintSystem(
    [Constraint.ge(X, 1), Constraint.ge(Y), Constraint.ge(X, 2)]
)
DOMINATED_WIDE = ConstraintSystem(
    Constraint.ge(LinearExpr.of("v%d" % i), bound)
    for i in range(61) for bound in (1, 2)
)

# Splitting the contradiction "0 = 1" must leave no trivially true
# "1 >= 0" behind.
CONTRADICTION = ConstraintSystem([
    Constraint.eq(LinearExpr.of("z"), 0),
    Constraint(LinearExpr.constant(1), EQ),
    Constraint.ge(X),
])


# Infeasible inputs: the projection is the single row "-1 >= 0",
# whether the contradiction survives elimination as a row over kept
# variables (x >= 1 and x <= 0) or comes out of it.
EMPTY_KEPT = ConstraintSystem(
    [Constraint.ge(X, 1), Constraint.le(X, 0), Constraint.ge(Y, X)]
)
EMPTY_ELIMINATED = ConstraintSystem([
    Constraint.eq(LinearExpr.of("z"), X + 1),
    Constraint.le(LinearExpr.of("z"), Y),
    Constraint.ge(X, Y),
])
# Past the LP prune's 60 rows, a conflict among kept variables leaves
# no constant row behind; the projection still decides emptiness.
EMPTY_KEPT_WIDE = ConstraintSystem(
    list(EMPTY_KEPT) + list(DOMINATED_WIDE)
)


@given(
    constraint_systems(POOL),
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
)
@example(DOMINATED, ["z"])
@example(DOMINATED_WIDE, ["z"])
@example(EMPTY_KEPT, ["y"])
@example(EMPTY_ELIMINATED, ["z"])
@example(EMPTY_KEPT_WIDE, ["y"])
@example(CONTRADICTION, ["z"])
@settings(max_examples=80, deadline=None)
def test_tracked_elimination_byte_identical(system, targets):
    """The same tidy projection from kernel and oracle: the oracle
    elimination's point set, irredundant, and ``-1 >= 0`` when
    empty."""
    result = eliminate_all_tracked(system, targets)
    assert identical(result, oracle_project(system, targets))
    check_projection(system, targets, result)


# -- the F8 workload and systems the analysis builds --------------------------


@pytest.mark.parametrize("nd", [2, 3, 4])
def test_hull_lift_byte_identical(nd):
    """The F8 workload: the lifted system of an nd-dimensional convex
    hull."""
    lifted, to_eliminate = hull_lift_workload(nd)
    result = eliminate_all_tracked(lifted, to_eliminate)
    assert identical(result, oracle_project(lifted, to_eliminate))
    check_projection(lifted, to_eliminate, result)


PERM = """
perm([], []).
perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
"""


def perm_eq8_pairs():
    """Every ``(Eq. 8 system, w multipliers)`` pair the pipeline hands
    to Fourier–Motzkin while analyzing ``perm/2`` in mode ``bf``."""
    captured = []
    real = dual.eliminate_all

    def spy(system, variables, **options):
        captured.append((system, tuple(variables)))
        return real(system, variables, **options)

    clear_caches()
    with mock.patch.object(dual, "eliminate_all", spy):
        result = TerminationAnalyzer(
            parse_program(PERM), AnalyzerSettings()
        ).analyze(("perm", 2), "bf")
    assert result.proved
    return captured


def test_perm_eq8_pairs_byte_identical():
    pairs = perm_eq8_pairs()
    assert any(multipliers for _, multipliers in pairs)
    for system, multipliers in pairs:
        assert identical(
            eliminate_all(system, multipliers),
            oracle_eliminate_all(system, multipliers),
        )
        for var in multipliers:
            assert identical(
                eliminate_all(system, [var]),
                oracle_eliminate_all(system, [var]),
            )
