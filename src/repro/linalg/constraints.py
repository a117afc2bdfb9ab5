"""Linear constraints and constraint systems.

A :class:`Constraint` is ``expr REL 0`` with ``REL`` one of ``>=``,
``<=``, ``=``.  Constraints normalize on construction: ``<=`` flips to
``>=`` by negating the expression, and coefficients are rescaled to a
canonical integer form so syntactically different but identical
constraints compare (and hash) equal — important for redundancy pruning
during Fourier–Motzkin elimination.
"""

from __future__ import annotations

from math import gcd

from repro.linalg.linexpr import _as_expr

GE = ">="
LE = "<="
EQ = "="

_VALID_RELATIONS = (GE, LE, EQ)


class Constraint:
    """A normalized linear constraint: ``expr >= 0`` or ``expr = 0``."""

    __slots__ = ("expr", "relation")

    def __init__(self, expr, relation=GE):
        if relation not in _VALID_RELATIONS:
            raise ValueError("bad relation %r" % relation)
        expr = _as_expr(expr)
        if relation == LE:
            expr = -expr
            relation = GE
        expr = _canonical_scale(expr, relation)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "relation", relation)

    def __setattr__(self, key, value):
        raise AttributeError("Constraint is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _from_canonical(cls, expr, relation=GE):
        """Internal: wrap an expression already in canonical form (the
        integer row kernel's materialization boundary) without
        re-running ``_canonical_scale``."""
        self = object.__new__(cls)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "relation", relation)
        return self

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

    # -- predicates --------------------------------------------------------------

    def variables(self):
        """The variables occurring in this object."""
        return self.expr.variables()

    def is_equality(self):
        """True for '=' constraints (vs '>=')."""
        return self.relation == EQ

    def is_trivial(self):
        """Constraint with no variables that always holds."""
        if self.expr.variables():
            return False
        if self.relation == EQ:
            return self.expr.const == 0
        return self.expr.const >= 0

    def is_contradiction(self):
        """Constraint with no variables that never holds."""
        if self.expr.variables():
            return False
        if self.relation == EQ:
            return self.expr.const != 0
        return self.expr.const < 0

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
        return (Constraint(self.expr, GE), Constraint(-self.expr, GE))

    # -- identity --------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Constraint)
            and self.relation == other.relation
            and self.expr == other.expr
        )

    def __hash__(self):
        return hash((self.relation, self.expr))

    def __str__(self):
        return "%s %s 0" % (self.expr, self.relation)

    def __repr__(self):
        return "Constraint(%r, %r)" % (self.expr, self.relation)


def _canonical_scale(expr, relation):
    """Rescale so integer coefficients with gcd 1; sign-normalize
    equalities by their first (deterministically ordered) coefficient."""
    expr = expr.scale_to_integers()
    numerators = [abs(int(coeff)) for _, coeff in expr.items()]
    if expr.const != 0:
        numerators.append(abs(int(expr.const)))
    if numerators:
        divisor = 0
        for value in numerators:
            divisor = gcd(divisor, value)
        if divisor > 1:
            expr = expr / divisor
    if relation == EQ:
        items = expr.items()
        if items and items[0][1] < 0:
            expr = -expr
        elif not items and expr.const < 0:
            expr = -expr
    return expr


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

    @classmethod
    def _from_canonical_unique(cls, constraints):
        """Trusted boundary: wrap rows known to be canonical,
        non-trivial, and pairwise distinct without re-hashing them.

        The dedup set is built lazily on the first membership test or
        ``add`` — kernels materializing large projections never pay
        the (Fraction-heavy) constraint hashing unless a caller
        actually mutates or probes the system.
        """
        self = cls.__new__(cls)
        self._constraints = list(constraints)
        self._seen = None
        variables = set()
        for constraint in self._constraints:
            variables |= constraint.variables()
        self._variables = variables
        return self

    def _dedup_index(self):
        seen = self._seen
        if seen is None:
            seen = self._seen = set(self._constraints)
        return seen

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
        seen = self._dedup_index()
        if constraint not in seen:
            seen.add(constraint)
            self._constraints.append(constraint)
            self._variables |= constraint.variables()

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
        return frozenset(self._dedup_index())

    def __contains__(self, constraint):
        return constraint in self._dedup_index()

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
