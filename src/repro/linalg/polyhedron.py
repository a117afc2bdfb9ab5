"""Convex polyhedra in constraint form.

The abstract domain behind inter-argument constraint inference (the
[VG90] substrate): each predicate's set of derivable argument-size
vectors is over-approximated by a convex polyhedron over its argument
dimensions.  Operations:

- ``meet`` — conjunction (used when composing rule bodies),
- ``project`` — existential elimination via exact Fourier–Motzkin,
- ``join`` — closed convex hull of the union, by double description
  (:mod:`repro.linalg.dd`: operands to generators, their union back to
  minimal rows); operands with too many generators get the weak join,
  a sound upper bound of the hull,
- ``widen`` — standard constraint-dropping widening so fixpoints
  terminate,
- ``entails`` / ``equivalent`` — exact, via simplex.

A polyhedron stores its dimension list explicitly; auxiliary variables
introduced during construction must be projected away by the caller.
"""

from __future__ import annotations

from repro.linalg.constraints import Constraint, ConstraintSystem, GE
from repro.linalg.dd import cancel, cone_generators
from repro.linalg.fourier_motzkin import FMBlowupError, eliminate_all_tracked
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import entails as lp_entails, is_feasible


class Polyhedron:
    """A convex polyhedron { x : constraints } over named dimensions."""

    def __init__(self, dimensions, constraints=()):
        self.dimensions = tuple(dimensions)
        system = ConstraintSystem()
        dimensions = set(self.dimensions)
        for constraint in constraints:
            extra = constraint.variables() - dimensions
            if extra:
                raise ValueError(
                    "constraint %s uses non-dimension variables %s"
                    % (constraint, sorted(extra, key=repr))
                )
            system.add(constraint)
        self.system = system
        self._empty_cache = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def top(cls, dimensions):
        """The whole space (no constraints)."""
        return cls(dimensions)

    @classmethod
    def bottom(cls, dimensions):
        """The empty polyhedron."""
        false = Constraint(LinearExpr.constant(-1), GE)
        poly = cls(dimensions)
        poly.system.add(false)
        poly._empty_cache = True
        return poly

    @classmethod
    def nonnegative_orthant(cls, dimensions):
        """{ x : x_i >= 0 } — argument sizes are always nonnegative."""
        return cls(
            dimensions,
            (Constraint.ge(LinearExpr.of(d)) for d in dimensions),
        )

    def freeze(self):
        """Make the rows read-only (adding one raises); returns self.

        For polyhedra shared across the rounds of a fixpoint.  A copy
        is never frozen."""
        self.system.freeze()
        return self

    def copy(self):
        """An independent copy."""
        poly = Polyhedron(self.dimensions, self.system)
        poly._empty_cache = self._empty_cache
        return poly

    # -- basic queries --------------------------------------------------------------

    def is_empty(self):
        """True iff the polyhedron has no points (decided by LP)."""
        if self._empty_cache is None:
            if self.system.has_contradiction_row():
                self._empty_cache = True
            else:
                self._empty_cache = not is_feasible(self.system)
        return self._empty_cache

    def is_top(self):
        """True when unconstrained (the whole space)."""
        return len(self.system) == 0

    def entails_constraint(self, constraint):
        # Fast path: a row we literally contain is entailed (rows are
        # canonically normalized, so hashing catches scaled variants).
        """Does every point satisfy *constraint*?"""
        if constraint in self.system:
            return True
        return lp_entails(self.system, constraint)

    def entails(self, other):
        """True if self is a subset of *other* (same dimensions)."""
        if self.is_empty():
            return True
        return all(
            self.entails_constraint(constraint) for constraint in other.system
        )

    def equivalent(self, other):
        # Identical constraint sets are equivalent without any LP work —
        # the common case when a fixpoint iteration has stabilized.
        """Mutual entailment (same point set)."""
        if self.system.constraint_set() == other.system.constraint_set():
            return True
        return self.entails(other) and other.entails(self)

    def contains_point(self, assignment):
        """Membership test for a concrete assignment."""
        return self.system.satisfied_by(assignment)

    # -- lattice / geometric operations ------------------------------------------------

    def meet(self, other):
        """Intersection; dimensions are merged."""
        dimensions = list(self.dimensions)
        for dim in other.dimensions:
            if dim not in dimensions:
                dimensions.append(dim)
        result = Polyhedron(dimensions)
        result.system.extend(self.system)
        result.system.extend(other.system)
        return result

    def with_constraints(self, constraints):
        """A copy strengthened with extra constraints."""
        result = self.copy()
        result.system.extend(constraints)
        result._empty_cache = None
        return result

    def project(self, keep_dimensions):
        """Existentially eliminate every dimension not in *keep*.

        The exact projection by Fourier–Motzkin
        (:func:`~repro.linalg.fourier_motzkin.eliminate_all_tracked`),
        which reduces an empty result to ``-1 >= 0``.  Should the
        row budget overflow, falls back to *forgetting* — a sound
        over-approximation that drops every constraint mentioning an
        eliminated variable.  Forgetting rows can make an empty
        polyhedron nonempty, so that path alone decides emptiness first,
        by one LP.
        """
        keep = [d for d in self.dimensions if d in set(keep_dimensions)]
        to_eliminate = self.system.variables() - set(keep)
        try:
            system = eliminate_all_tracked(self.system, to_eliminate)
        except FMBlowupError:
            if self.is_empty():
                return Polyhedron.bottom(keep)
            system = _forget(self.system, to_eliminate)
        return Polyhedron(keep, system)

    def rename(self, mapping):
        """Rename variables via *mapping*."""
        dimensions = [mapping.get(d, d) for d in self.dimensions]
        if len(set(dimensions)) != len(dimensions):
            raise ValueError("renaming collapses dimensions: %r" % mapping)
        return Polyhedron(dimensions, self.system.rename(mapping))

    def join(self, other):
        """Closed convex hull of the union, via :meth:`join_exact`.

        Kept as the default because the fixpoint must *discover* new
        facet directions (e.g. ``arg2 >= arg1 + 1`` for a ``less``
        predicate arises only as the hull of successive iterates); the
        cheaper :meth:`join_weak` cannot do that.
        """
        if self.dimensions != other.dimensions:
            raise ValueError("join requires identical dimension lists")
        if self.system.constraint_set() == other.system.constraint_set():
            return self.copy()
        return self.join_exact(other)

    def join_weak(self, other):
        """An upper bound of the union: the *constraint-candidate* join.

        Collects the linear parts of both polyhedra's constraints and
        every dimension's lower-bound direction ``d`` as candidate facet
        directions and keeps, for each candidate ``l``, the inequality
        ``l >= min(min_P1 l, min_P2 l)`` when both minima exist.  The
        result contains the exact convex hull (so it is a sound
        over-approximation for the fixpoint) but can be strictly larger:
        it reuses existing facet directions only.  The dimension
        directions keep every lower bound on a single dimension however
        the operands are written: ``arg1 >= 1, arg2 = arg1 + 1`` names
        no ``arg2`` row, yet still yields ``arg2 >= 2``.
        Cost: two small LPs per candidate, no Fourier–Motzkin at all.
        The fixpoint's ``join_strategy="weak"``, and :meth:`join_exact`'s
        answer for operands past the double-description budget.
        """
        if self.dimensions != other.dimensions:
            raise ValueError("join requires identical dimension lists")
        if self.is_empty():
            return other.copy()
        if other.is_empty():
            return self.copy()

        from repro.linalg.simplex import OPTIMAL, solve_lp

        candidates = {}
        for system in (self.system, other.system):
            for constraint in system.inequalities():
                candidates[LinearExpr(dict(constraint.terms))] = None
        for dimension in self.dimensions:
            candidates.setdefault(LinearExpr.of(dimension))
        kept = []
        for linear in candidates:
            first = solve_lp(linear, self.system)
            if first.status != OPTIMAL:
                continue
            second = solve_lp(linear, other.system)
            if second.status != OPTIMAL:
                continue
            bound = min(first.value, second.value)
            kept.append(Constraint(linear - LinearExpr.constant(bound), GE))
        return Polyhedron(self.dimensions, kept)

    def join_exact(self, other):
        """Closed convex hull of the union (same dimension list).

        By double description (:mod:`repro.linalg.dd`), with no
        Fourier–Motzkin and no LP: each operand's homogenized cone
        ``{(x, t) : A.x + b.t >= 0, E.x + f.t = 0, t >= 0}`` is
        converted to its lines and extreme rays — an operand is empty
        exactly when no generator has ``t > 0``, which sets its
        emptiness cache — and the union of both generator sets is
        converted back once, through the polar cone.  The polar's lines
        are the hull's implicit equalities, emitted as ``>=`` pairs; its
        rays are the facets, each once, so the result is minimal.  Rows
        are canonical: each equality and facet is reduced modulo the
        equalities (last dimensions first), and they come sorted, so the
        result depends only on the hull's point set.

        A conversion that passes :data:`~repro.linalg.dd.RAY_BUDGET`
        rays stops, and the result is :meth:`join_weak`'s: a sound upper
        bound of the hull, not always the hull itself.
        """
        if self.dimensions != other.dimensions:
            raise ValueError("join requires identical dimension lists")
        first = _cone_of(self)
        if self._empty_cache:
            return other.copy()
        second = _cone_of(other)
        if other._empty_cache:
            return self.copy()
        if first is None or second is None:
            return self.join_weak(other)
        rows = _hull_rows(self.dimensions, first, second)
        if rows is None:
            return self.join_weak(other)
        result = Polyhedron(self.dimensions, rows)
        result._empty_cache = False
        return result

    def widen(self, newer):
        """Standard widening: keep only our constraints *newer* entails.

        Requires self ⊑ newer in the fixpoint iteration (old first).
        Equalities are split so that one surviving half-space is kept
        even when the other direction grew.  The kept rows are halves
        of our own, so the result contains self and is nonempty: its
        emptiness cache is set, and the next round needs no LP for it.
        """
        if self.is_empty():
            return newer.copy()
        kept = []
        for constraint in self.system:
            for half in constraint.as_inequalities():
                if newer.entails_constraint(half):
                    kept.append(half)
        result = Polyhedron(self.dimensions, kept)
        result._empty_cache = False
        return result

    def weakened(self, max_rows):
        """A sound over-approximation with at most *max_rows* rows.

        Keeps the syntactically simplest constraints (fewest variables,
        smallest coefficients) — dropping rows only enlarges the
        polyhedron, so every client of the abstract domain stays sound.
        Ties go by the canonical row, so equal rows sort alike however
        they were built.  Used by the fixpoint to bound iterate
        complexity.
        """
        if len(self.system) <= max_rows:
            return self

        def complexity(constraint):
            """Sort key: fewest variables, smallest coefficients first."""
            coefficients = [abs(c) for _, c in constraint.terms]
            return (
                len(coefficients),
                max(coefficients, default=0),
                abs(constraint.const),
                [(repr(var), c) for var, c in constraint.terms],
                constraint.const,
                constraint.relation,
            )

        kept = sorted(self.system, key=complexity)[:max_rows]
        return Polyhedron(self.dimensions, kept)

    # -- rendering --------------------------------------------------------------------------

    def __str__(self):
        if self.is_empty():
            return "<empty polyhedron over %s>" % (list(self.dimensions),)
        if self.is_top():
            return "<top polyhedron over %s>" % (list(self.dimensions),)
        return str(self.system)

    def __repr__(self):
        return "Polyhedron(%r, %r)" % (self.dimensions, self.system.constraints)


def _cone_of(poly):
    """The lines and extreme rays of *poly*'s homogenized cone over
    ``(dimensions..., t)``; None past the ray budget or when *poly* is
    already known to be empty.  Sets ``poly._empty_cache``: *poly* is
    empty iff no ray has ``t > 0``."""
    if poly._empty_cache:
        return None
    index = {d: i for i, d in enumerate(poly.dimensions)}
    width = len(index) + 1
    equalities = []
    inequalities = [tuple(int(i == width - 1) for i in range(width))]
    for constraint in poly.system:
        vector = [0] * width
        for var, c in constraint.terms:
            vector[index[var]] = c
        vector[-1] = constraint.const
        if constraint.is_equality():
            equalities.append(tuple(vector))
        else:
            inequalities.append(tuple(vector))
    generators = cone_generators(equalities, inequalities, width)
    if generators is None:
        return None
    lines, rays = generators
    poly._empty_cache = not any(ray[-1] > 0 for ray in rays)
    return lines, rays


def _hull_rows(dimensions, first, second):
    """The minimal rows of the hull of two nonempty polyhedra, given
    their cones' generators; None past the ray budget.

    The hull's cone is generated by the union of both generator sets;
    its facets and implicit equalities are the rays and lines of the
    polar cone.  Reduced modulo the equalities, whose pivots are
    dimensions, the facet ``t >= 0`` (when it is one) is exactly
    ``(0, ..., 0, 1)``: the trivially true row ``1 >= 0``, which the
    polyhedron's system drops.
    """
    lines = list(dict.fromkeys(first[0] + second[0]))
    rays = list(dict.fromkeys(first[1] + second[1]))
    polar = cone_generators(lines, rays, len(dimensions) + 1)
    if polar is None:
        return None
    equalities, facets = polar
    basis = _echelon(equalities, len(dimensions))
    facets = sorted(_reduce(facet, basis) for facet in facets)
    rows = []
    for _, equality in basis:
        rows.append(_row_of(dimensions, equality))
        rows.append(_row_of(dimensions, tuple(-c for c in equality)))
    rows.extend(_row_of(dimensions, facet) for facet in facets)
    return rows


def _echelon(vectors, width):
    """A reduced echelon basis of the span of the linearly independent
    int *vectors*, as ``(pivot, vector)`` pairs sorted by pivot: each
    pivot is the last nonzero coefficient among the first *width*
    entries, positive in its own vector and zero in every other."""
    basis = []
    for vector in vectors:
        vector = _reduce(vector, basis)
        pivot = max(i for i in range(width) if vector[i])
        if vector[pivot] < 0:
            vector = tuple(-c for c in vector)
        basis = [(p, cancel(e, e[pivot], vector, vector[pivot]))
                 for p, e in basis]
        basis.append((pivot, vector))
    return sorted(basis)


def _reduce(vector, basis):
    """*vector* plus a combination of the *basis* vectors that zeroes
    every pivot entry, times a positive factor, gcd-normalized."""
    for pivot, row in basis:
        vector = cancel(vector, vector[pivot], row, row[pivot])
    return vector


def _row_of(dimensions, vector):
    """The row ``vector . (dimensions..., 1) >= 0``."""
    return _row(
        [(d, c) for d, c in zip(dimensions, vector) if c], vector[-1], GE
    )


def _forget(system, variables):
    """Sound projection fallback: drop rows mentioning *variables*."""
    variables = set(variables)
    return ConstraintSystem(
        constraint
        for constraint in system
        if not (constraint.variables() & variables)
    )


def _row(terms, const, relation):
    """The constraint ``sum(c * var) + const REL 0`` of integer
    *terms* given in any order."""
    terms = sorted(terms, key=lambda term: repr(term[0]))
    return Constraint.from_row(
        [var for var, _ in terms], [c for _, c in terms], const, relation
    )
