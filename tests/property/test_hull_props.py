"""The double-description hull is the exact, minimal convex hull.

:meth:`Polyhedron.join_exact` converts both operands to generators and
back (:mod:`repro.linalg.dd`).  On random operands over up to five
dimensions — empty, unbounded, lower-dimensional and single-point ones
included — it must

- describe the same point set as the lifted-construction oracle
  (:mod:`tests.property.hull_oracle`: untracked Fourier–Motzkin plus the
  LP prune), checked by mutual entailment;
- keep no row the others entail;
- come out in one canonical form, whatever the operands' row order and
  whichever operand comes first;
- decide each operand's emptiness with no LP.

Under the hull, :func:`repro.linalg.dd.cone_generators` must return a
basis of the cone's lineality space and only extreme rays, each once:
a ray is extreme iff the constraints tight on it have rank
``width - #lines - 1``, checked here by rational Gaussian elimination.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import dd, simplex
from repro.linalg.constraints import Constraint, EQ, GE
from repro.linalg.linexpr import LinearExpr
from repro.linalg.polyhedron import Polyhedron

from tests.property.hull_oracle import oracle_hull
from tests.property.simplex_oracle import oracle_prune

NAMES = ("a", "b", "c", "d", "e")


def _rows(dimensions):
    """Rows with small integer coefficients over *dimensions*."""
    row = st.builds(
        lambda coeffs, const, relation: Constraint(
            LinearExpr(dict(zip(dimensions, coeffs)), const), relation
        ),
        st.lists(st.integers(-2, 2), min_size=len(dimensions),
                 max_size=len(dimensions)),
        st.integers(-3, 3),
        st.sampled_from([GE, GE, GE, EQ]),
    )
    return st.lists(row, max_size=4)


def _point(dimensions):
    """A single point, as one equality per dimension."""
    return st.lists(
        st.integers(-3, 3), min_size=len(dimensions),
        max_size=len(dimensions),
    ).map(lambda values: [
        Constraint.eq(LinearExpr.of(d), v)
        for d, v in zip(dimensions, values)
    ])


def _contradiction(dimensions):
    """Rows that no point satisfies: ``d >= 1`` and ``d <= 0``."""
    d = LinearExpr.of(dimensions[0])
    return st.just([Constraint.ge(d, 1), Constraint.le(d, 0)])


@st.composite
def operand_pairs(draw):
    arity = draw(st.integers(1, 5))
    dimensions = NAMES[:arity]
    operand = st.one_of(
        _rows(dimensions), _point(dimensions), _contradiction(dimensions),
        st.tuples(_rows(dimensions), _point(dimensions)).map(
            lambda parts: parts[0] + parts[1][1:]
        ),
    )
    return (Polyhedron(dimensions, draw(operand)),
            Polyhedron(dimensions, draw(operand)))


def _rank(vectors):
    """Rank over the rationals, by Gaussian elimination."""
    rows = [[Fraction(c) for c in vector] for vector in vectors]
    rank = 0
    for column in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][column]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][column]:
                factor = rows[r][column] / rows[rank][column]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def cones(draw):
    width = draw(st.integers(2, 6))
    vector = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    return (width,
            draw(st.lists(vector.map(tuple), max_size=2)),
            draw(st.lists(vector.map(tuple), max_size=9)))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@given(cones())
@settings(max_examples=400, deadline=None)
def test_cone_generators_are_a_lineality_basis_and_extreme_rays(cone):
    width, equalities, inequalities = cone
    generators = dd.cone_generators(equalities, inequalities, width)
    if generators is None:
        return
    lines, rays = generators
    rows = equalities + inequalities
    assert all(_dot(a, line) == 0 for a in rows for line in lines)
    assert len(lines) == width - _rank(rows) == _rank(lines)
    assert len(set(rays)) == len(rays)
    for ray in rays:
        assert all(_dot(e, ray) == 0 for e in equalities)
        assert all(_dot(a, ray) >= 0 for a in inequalities)
        tight = [a for a in rows if _dot(a, ray) == 0]
        assert _rank(tight) == width - len(lines) - 1, ray


def _count_lps(monkeypatch):
    solves = []
    solve = simplex._Tableau.solve

    def counted(tableau):
        solves.append(tableau)
        return solve(tableau)

    monkeypatch.setattr(simplex._Tableau, "solve", counted)
    return solves


@given(operand_pairs())
@settings(max_examples=250, deadline=None)
def test_hull_equals_the_lifted_oracle(pair):
    first, second = pair
    hull = first.join_exact(second)
    want = oracle_hull(first, second)
    assert hull.entails(want), (first, second, hull, want)
    assert want.entails(hull), (first, second, hull, want)


@given(operand_pairs())
@settings(max_examples=150, deadline=None)
def test_hull_is_minimal_and_canonical(pair):
    first, second = pair
    hull = first.join_exact(second)
    if first.is_empty() or second.is_empty():
        return
    rows = hull.system.constraints
    assert not any(row.is_equality() for row in rows)
    assert len(oracle_prune(hull.system)) == len(rows)
    shuffled = list(second.system)
    random.Random(len(rows)).shuffle(shuffled)
    swapped = Polyhedron(second.dimensions, shuffled).join_exact(first)
    assert swapped.system.constraints == rows


@given(operand_pairs())
@settings(max_examples=100, deadline=None)
def test_hull_decides_emptiness_without_lp(pair):
    first, second = pair
    empty = (
        not simplex.is_feasible(first.system),
        not simplex.is_feasible(second.system),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        solves = _count_lps(monkeypatch)
        hull = first.join_exact(second)
        known = (first._empty_cache, second._empty_cache)
    assert solves == []
    assert known[0] == empty[0]
    if not empty[0]:
        assert known[1] == empty[1]
    if not any(empty):
        assert hull._empty_cache is False


def test_hull_rows_are_canonical():
    """``append``'s hull: the equality pivots on the last dimension, the
    facets are reduced modulo it, and two descriptions of the same
    operands give the same rows."""
    x, y, z = (LinearExpr.of(name) for name in "xyz")
    first = Polyhedron("xyz", [Constraint.eq(x), Constraint.ge(y),
                               Constraint.eq(z, y)])
    second = Polyhedron("xyz", [Constraint.eq(x, 1), Constraint.ge(y),
                                Constraint.eq(z, y + 1)])
    rows = [str(row) for row in first.join_exact(second).system]
    assert rows == [
        "- x - y + z >= 0", "x + y - z >= 0",
        "- x + 1 >= 0", "y >= 0", "x >= 0",
    ]
    rewritten = Polyhedron("xyz", [Constraint.ge(z, 1),
                                   Constraint.eq(y, z - 1),
                                   Constraint.eq(2 * x, z - y + 1)])
    assert [str(row) for row in rewritten.join_exact(first).system] == rows

    # A line and a point off it hull to a strip in the plane they span;
    # the polar's own facet vectors mention z, the reduced ones do not.
    line = Polyhedron("xyz", [Constraint.eq(2 * y + z, 2),
                              Constraint.eq(x - y + 2 * z, 2)])
    point = Polyhedron("xyz", [Constraint.eq(2 * y + z, 1),
                               Constraint.eq(2 * x, z),
                               Constraint.eq(x - y + z + 1)])
    strip = [
        "- 4*x + 30*y + 5*z - 18 >= 0", "4*x - 30*y - 5*z + 18 >= 0",
        "- x + 5*y - 2 >= 0", "4*x - 20*y + 13 >= 0",
    ]
    assert [str(row) for row in line.join_exact(point).system] == strip
    assert [str(row) for row in point.join_exact(line).system] == strip


def test_hull_keeps_the_facet_chernikov_pruning_drops():
    """A corpus hull that the lifted construction once
    over-approximated, when its projection pruned rows by Chernikov's
    rule: the exact hull has the facet ``-x1 + 3*x2 - x3 - 1 >= 0``,
    and the double-description hull keeps it."""
    x1, x2, x3 = (LinearExpr.of(name) for name in ("x1", "x2", "x3"))
    dimensions = ("x1", "x2", "x3")
    a = Polyhedron(dimensions, [
        Constraint.eq(x3, x1 + 2),
        Constraint.ge(x2, x3 - 1),
        Constraint.ge(x3, 2),
    ])
    b = Polyhedron(dimensions, [
        Constraint.eq(x3, 2 * x1 + 5),
        Constraint.ge(x3, 5),
        Constraint.ge(x1 + x2 - x3 + 3),
    ])
    want = oracle_hull(a, b)
    facet = Constraint.ge(-x1 + 3 * x2 - x3 - 1)
    hull = a.join_exact(b)
    assert hull.entails_constraint(facet)
    assert hull.entails(want) and want.entails(hull)


def test_box_past_the_ray_budget_takes_the_weak_join(monkeypatch):
    """``[0,1]^8`` has 256 vertices, past the ray budget: the hull with
    a point is the weak join's, a sound upper bound found by LP with no
    Fourier–Motzkin."""
    from repro.linalg import polyhedron

    dimensions = tuple("x%d" % i for i in range(8))
    box = Polyhedron(dimensions, [
        row for d in dimensions
        for row in (Constraint.ge(LinearExpr.of(d)),
                    Constraint.le(LinearExpr.of(d), 1))
    ])
    point = Polyhedron(dimensions, [
        Constraint.eq(LinearExpr.of(d), 2 if d == "x0" else 0)
        for d in dimensions
    ])
    assert 2 ** len(dimensions) > dd.RAY_BUDGET

    def no_fm(*args, **kwargs):
        raise AssertionError("the join ran Fourier–Motzkin")

    monkeypatch.setattr(polyhedron, "eliminate_all_tracked", no_fm)
    hull = box.join(point)
    weak = box.join_weak(point)
    assert [repr(row) for row in hull.system] == [
        repr(row) for row in weak.system
    ]
    assert box.entails(hull) and point.entails(hull)
    assert not hull.contains_point({d: -1 for d in dimensions})
    # The price: the bounding box admits (2, 1, 0, ...), which every
    # facet x0 + xi <= 2 of the exact hull excludes.
    assert hull.contains_point(
        {d: {"x0": 2, "x1": 1}.get(d, 0) for d in dimensions}
    )
