"""Immutable linear expressions with exact rational coefficients.

A :class:`LinearExpr` is ``constant + sum(coefficient_i * variable_i)``
where variables are arbitrary hashable names (typically strings like
``"x1"`` or tuples like ``("append", 3)``) and coefficients are
:class:`fractions.Fraction`.

Expressions support the natural arithmetic operators, substitution of
expressions for variables, and exact evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _to_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "refusing float %r; exact analysis needs int/Fraction" % value
        )
    raise TypeError("cannot convert %r to Fraction" % (value,))


class LinearExpr:
    """``constant + sum(coeff * var)``; immutable and hashable."""

    __slots__ = ("_coefficients", "_constant", "_hash", "_variables")

    def __init__(self, coefficients=None, constant=0):
        items = {}
        if coefficients:
            for var, coeff in dict(coefficients).items():
                coeff = _to_fraction(coeff)
                if coeff != 0:
                    items[var] = coeff
        object.__setattr__(self, "_coefficients", items)
        object.__setattr__(self, "_constant", _to_fraction(constant))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_variables", None)

    def __setattr__(self, key, value):
        raise AttributeError("LinearExpr is immutable")

    # -- construction ----------------------------------------------------------

    @classmethod
    def constant(cls, value):
        """An expression with only a constant term."""
        return cls({}, value)

    @classmethod
    def of(cls, var, coefficient=1):
        """A single-variable expression with the given coefficient."""
        return cls({var: coefficient})

    # -- access ------------------------------------------------------------------

    @property
    def const(self):
        """The constant term."""
        return self._constant

    def coefficient(self, var):
        """The coefficient of *var* (0 if absent)."""
        return self._coefficients.get(var, Fraction(0))

    def variables(self):
        """The set of variables with non-zero coefficient (cached)."""
        cached = self._variables
        if cached is None:
            cached = frozenset(self._coefficients)
            object.__setattr__(self, "_variables", cached)
        return cached

    def items(self):
        """(variable, coefficient) pairs in deterministic order."""
        return sorted(self._coefficients.items(), key=lambda kv: repr(kv[0]))

    def is_constant(self):
        """True when no variable has a nonzero coefficient."""
        return not self._coefficients

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other):
        other = _as_expr(other)
        coefficients = dict(self._coefficients)
        for var, coeff in other._coefficients.items():
            coefficients[var] = coefficients.get(var, Fraction(0)) + coeff
        return LinearExpr(coefficients, self._constant + other._constant)

    __radd__ = __add__

    def __neg__(self):
        return LinearExpr(
            {var: -coeff for var, coeff in self._coefficients.items()},
            -self._constant,
        )

    def __sub__(self, other):
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) + (-self)

    def __mul__(self, scalar):
        scalar = _to_fraction(scalar)
        return LinearExpr(
            {var: coeff * scalar for var, coeff in self._coefficients.items()},
            self._constant * scalar,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (Fraction(1) / _to_fraction(scalar))

    # -- comparison / identity --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinearExpr):
            if isinstance(other, (int, Fraction)):
                other = LinearExpr.constant(other)
            else:
                return NotImplemented
        return (
            self._constant == other._constant
            and self._coefficients == other._coefficients
        )

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash(
                (self._constant, frozenset(self._coefficients.items()))
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- operations ------------------------------------------------------------------------

    def substitute(self, mapping):
        """Replace variables by expressions (or numbers) from *mapping*."""
        result = LinearExpr.constant(self._constant)
        for var, coeff in self._coefficients.items():
            replacement = mapping.get(var)
            if replacement is None:
                result = result + LinearExpr({var: coeff})
            else:
                result = result + _as_expr(replacement) * coeff
        return result

    def evaluate(self, assignment):
        """Exact value given a full variable assignment."""
        total = self._constant
        for var, coeff in self._coefficients.items():
            total += coeff * _to_fraction(assignment[var])
        return total

    def rename(self, mapping):
        """Rename variables via *mapping* (missing names unchanged);
        the coefficients of variables renamed to one name add up."""
        coefficients = {}
        for var, coeff in self._coefficients.items():
            name = mapping.get(var, var)
            coefficients[name] = coefficients.get(name, 0) + coeff
        return LinearExpr(coefficients, self._constant)

    def scale_to_integers(self):
        """Multiply by the positive lcm of denominators; returns expr."""
        return self * lcm(
            self._constant.denominator,
            *(coeff.denominator for coeff in self._coefficients.values()),
        )

    # -- rendering --------------------------------------------------------------------------

    def __str__(self):
        return render_terms(self.items(), self._constant)

    def __repr__(self):
        return "LinearExpr(%r, %r)" % (dict(self._coefficients), self._constant)


def _as_expr(value):
    if isinstance(value, LinearExpr):
        return value
    return LinearExpr.constant(_to_fraction(value))


def render_terms(terms, constant):
    """``constant + sum(coefficient * variable)`` as text, the terms
    in the given order (shared by :class:`LinearExpr` and
    :class:`~repro.linalg.constraints.Constraint`)."""
    parts = []
    for var, coeff in terms:
        name = _var_name(var)
        if coeff == 1:
            parts.append("+ %s" % name)
        elif coeff == -1:
            parts.append("- %s" % name)
        elif coeff > 0:
            parts.append("+ %s*%s" % (coeff, name))
        else:
            parts.append("- %s*%s" % (-coeff, name))
    if constant != 0 or not parts:
        sign = "+" if constant >= 0 else "-"
        parts.append("%s %s" % (sign, abs(constant)))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _var_name(var):
    if isinstance(var, tuple):
        return ".".join(str(part) for part in var)
    return str(var)


def variable(name):
    """Shorthand for a unit-coefficient expression over *name*."""
    return LinearExpr.of(name)
