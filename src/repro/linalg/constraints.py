"""Linear constraints and constraint systems.

A :class:`Constraint` is ``expr REL 0`` with ``REL`` one of ``>=``,
``<=``, ``=``, stored as its canonical integer row: the nonzero
``(variable, int)`` terms in ``repr`` order, an ``int`` constant, and
the relation (``>=`` or ``=``).  A ``<=`` row flips to ``>=`` by
negation, rational coefficients scale to integers, and
:func:`canonical_row` divides by the gcd and sign-normalizes
equalities, so syntactically different but identical constraints
compare (and hash) equal — important for redundancy pruning during
Fourier–Motzkin elimination.

This row is the one row format of :mod:`repro.linalg`: the FM kernel
interns its terms into dense tuples and materializes results with
:meth:`Constraint.from_row`, the simplex tableau reads its ints, and
:class:`~repro.linalg.polyhedron.Polyhedron` builds hull rows from
them.  A :class:`LinearExpr` appears only at the edges: rows are built
from expressions, and ``.expr`` is a derived read-only view.
"""

from __future__ import annotations

from math import gcd, lcm

from repro.linalg.linexpr import LinearExpr, _as_expr, render_terms

GE = ">="
LE = "<="
EQ = "="

_set = object.__setattr__


def canonical_row(coeffs, const, equality=False):
    """The canonical form ``(coeffs, const)`` of the integer row
    ``coeffs . x + const >= 0`` (``= 0`` with *equality*), with
    *coeffs* in the ``repr`` order of their variables.

    An equality is negated when its first nonzero coefficient (with
    none, its constant) is negative; then every entry is divided by
    the gcd of all entries, the constant included.  The one row
    canonicalization of :mod:`repro.linalg`: :class:`Constraint` and
    the FM kernel both use it.
    """
    if equality and next((c for c in coeffs if c), const) < 0:
        coeffs = tuple(-c for c in coeffs)
        const = -const
    divisor = gcd(const, *coeffs)
    if divisor > 1:
        coeffs = tuple(c // divisor for c in coeffs)
        const //= divisor
    return coeffs, const


class Constraint:
    """A normalized linear constraint: ``expr >= 0`` or ``expr = 0``,
    held as ``sum(c * var for var, c in terms) + const``."""

    __slots__ = ("terms", "const", "relation", "_hash", "_expr")

    def __init__(self, expr, relation=GE):
        expr = _as_expr(expr)
        items = expr.items()
        constant = expr.const
        scale = lcm(constant.denominator, *(c.denominator for _, c in items))
        self._init(
            [var for var, _ in items],
            [c.numerator * (scale // c.denominator) for _, c in items],
            constant.numerator * (scale // constant.denominator),
            relation,
        )

    @classmethod
    def from_row(cls, variables, coeffs, const, relation=GE):
        """The constraint ``coeffs . variables + const REL 0`` of an
        integer row: *variables* are distinct and in ``repr`` order,
        zero coefficients are dropped, and the row is canonicalized."""
        self = object.__new__(cls)
        self._init(variables, coeffs, const, relation)
        return self

    def _init(self, variables, coeffs, const, relation):
        if relation == LE:
            coeffs = [-c for c in coeffs]
            const = -const
            relation = GE
        elif relation not in (GE, EQ):
            raise ValueError("bad relation %r" % relation)
        coeffs, const = canonical_row(coeffs, const, relation == EQ)
        terms = tuple((var, c) for var, c in zip(variables, coeffs) if c)
        _set(self, "terms", terms)
        _set(self, "const", const)
        _set(self, "relation", relation)
        _set(self, "_hash", hash((relation, terms, const)))
        _set(self, "_expr", None)

    def __setattr__(self, key, value):
        raise AttributeError("Constraint is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def ge(cls, left, right=0):
        """left >= right"""
        return cls(_as_expr(left) - _as_expr(right), GE)

    @classmethod
    def le(cls, left, right=0):
        """left <= right"""
        return cls(_as_expr(right) - _as_expr(left), GE)

    @classmethod
    def eq(cls, left, right=0):
        """left = right"""
        return cls(_as_expr(left) - _as_expr(right), EQ)

    # -- views -------------------------------------------------------------------

    @property
    def expr(self):
        """The row as a :class:`LinearExpr` (a read-only view, built on
        first use)."""
        expr = self._expr
        if expr is None:
            expr = LinearExpr(dict(self.terms), self.const)
            _set(self, "_expr", expr)
        return expr

    def variables(self):
        """The variables occurring in this object."""
        return frozenset(var for var, _ in self.terms)

    # -- predicates --------------------------------------------------------------

    def is_equality(self):
        """True for '=' constraints (vs '>=')."""
        return self.relation == EQ

    def is_trivial(self):
        """Constraint with no variables that always holds."""
        if self.terms:
            return False
        return self.const == 0 if self.relation == EQ else self.const >= 0

    def is_contradiction(self):
        """Constraint with no variables that never holds."""
        if self.terms:
            return False
        return self.const != 0 if self.relation == EQ else self.const < 0

    def satisfied_by(self, assignment):
        """Evaluate against a full variable assignment."""
        value = self.expr.evaluate(assignment)
        return value == 0 if self.relation == EQ else value >= 0

    # -- operations ---------------------------------------------------------------

    def substitute(self, mapping):
        """Replace variables by expressions from *mapping*."""
        return Constraint(self.expr.substitute(mapping), self.relation)

    def rename(self, mapping):
        """Rename variables via *mapping*."""
        return Constraint(self.expr.rename(mapping), self.relation)

    def as_inequalities(self):
        """Split an equality into its two defining inequalities."""
        if self.relation == GE:
            return (self,)
        variables = [var for var, _ in self.terms]
        coeffs = [c for _, c in self.terms]
        return (
            Constraint.from_row(variables, coeffs, self.const, GE),
            Constraint.from_row(variables, coeffs, self.const, LE),
        )

    # -- identity --------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Constraint)
            and self._hash == other._hash
            and self.relation == other.relation
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "%s %s 0" % (render_terms(self.terms, self.const),
                            self.relation)

    def __repr__(self):
        return "Constraint(%r, %r)" % (self.expr, self.relation)


class ConstraintSystem:
    """An ordered, de-duplicated collection of constraints."""

    #: Set by :meth:`freeze`; a frozen system refuses new rows.
    _frozen = False

    def __init__(self, constraints=()):
        self._constraints = []
        self._seen = set()
        self._variables = set()
        for constraint in constraints:
            self.add(constraint)

    def freeze(self):
        """Make the system read-only (``add``/``extend`` raise
        :class:`TypeError` from now on); returns it."""
        self._frozen = True
        return self

    def add(self, constraint):
        """Add one constraint (normalized, de-duplicated)."""
        if self._frozen:
            raise TypeError("cannot add rows to a frozen ConstraintSystem")
        if not isinstance(constraint, Constraint):
            raise TypeError("expected Constraint, got %r" % (constraint,))
        if constraint.is_trivial():
            return
        if constraint not in self._seen:
            self._seen.add(constraint)
            self._constraints.append(constraint)
            self._variables.update(var for var, _ in constraint.terms)

    def extend(self, constraints):
        """Add every constraint from the iterable."""
        for constraint in constraints:
            self.add(constraint)

    @property
    def constraints(self):
        """The constraints as a tuple, in insertion order."""
        return tuple(self._constraints)

    def constraint_set(self):
        """The constraints as a set (rows are canonically normalized,
        so set equality means syntactic system equality)."""
        return frozenset(self._seen)

    def __contains__(self, constraint):
        return constraint in self._seen

    def variables(self):
        """The variables occurring in this object.

        Maintained incrementally as constraints are added (rows are
        never removed); a fresh set is returned so callers can mutate
        the result freely.
        """
        return set(self._variables)

    def inequalities(self):
        """All constraints as pure ``>= 0`` inequalities."""
        result = []
        for constraint in self._constraints:
            result.extend(constraint.as_inequalities())
        return result

    def has_contradiction_row(self):
        """Syntactic check: some row is a constant-false constraint."""
        return any(c.is_contradiction() for c in self._constraints)

    def satisfied_by(self, assignment):
        """Evaluate against a full variable assignment."""
        return all(c.satisfied_by(assignment) for c in self._constraints)

    def substitute(self, mapping):
        """Replace variables by expressions from *mapping*."""
        return ConstraintSystem(
            c.substitute(mapping) for c in self._constraints
        )

    def rename(self, mapping):
        """Rename variables via *mapping*."""
        return ConstraintSystem(c.rename(mapping) for c in self._constraints)

    def copy(self):
        """An independent copy."""
        return ConstraintSystem(self._constraints)

    def __iter__(self):
        return iter(self._constraints)

    def __len__(self):
        return len(self._constraints)

    def __str__(self):
        return "\n".join(str(c) for c in self._constraints)

    def __repr__(self):
        return "ConstraintSystem(%r)" % (self._constraints,)
