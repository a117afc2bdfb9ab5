"""Size environments: predicate -> polyhedron over argument sizes.

A :class:`SizeEnvironment` maps each predicate indicator ``(name, n)``
to a :class:`~repro.linalg.polyhedron.Polyhedron` over the dimensions
``("arg", 1) ... ("arg", n)``, over-approximating the set of argument
size vectors of *derivable facts* for that predicate.

EDB predicates (referenced but never defined) default to the
nonnegative orthant — sizes are nonnegative but otherwise unknown.
Callers may override individual entries with externally supplied
constraints, which reproduces the paper's "imported feasibility
constraints ... supplied by other external means".
"""

from __future__ import annotations

from repro.lp.program import BUILTIN_PREDICATES
from repro.linalg.constraints import Constraint
from repro.linalg.linexpr import LinearExpr
from repro.linalg.polyhedron import Polyhedron
from repro.sizes.size_equations import arg_dimension, argument_size_exprs
from repro.sizes.norms import get_norm, size_variable


class SizeEnvironment:
    """Mapping from predicate indicator to argument-size polyhedron."""

    def __init__(self):
        self._entries = {}

    def set(self, indicator, polyhedron):
        """Install a polyhedron for *indicator* (dimension-checked)."""
        name, arity = indicator
        expected = tuple(arg_dimension(i) for i in range(1, arity + 1))
        if tuple(polyhedron.dimensions) != expected:
            raise ValueError(
                "polyhedron for %s/%d must have dimensions %s"
                % (name, arity, list(expected))
            )
        self._entries[indicator] = polyhedron

    def get(self, indicator):
        """The polyhedron for *indicator*; unknown predicates get the
        nonnegative orthant (sound default)."""
        entry = self._entries.get(indicator)
        if entry is not None:
            return entry
        return default_polyhedron(indicator)

    def known(self, indicator):
        """True if *indicator* has an explicit entry."""
        return indicator in self._entries

    def items(self):
        """The explicit (indicator, polyhedron) entries."""
        return self._entries.items()

    def copy(self):
        """An independent copy."""
        env = SizeEnvironment()
        env._entries = dict(self._entries)
        return env

    def set_from_constraints(self, indicator, constraints):
        """Install a polyhedron built from externally supplied
        constraints over ``("arg", i)`` dimensions (plus nonnegativity)."""
        poly = default_polyhedron(indicator).with_constraints(constraints)
        self.set(indicator, poly)

    def __str__(self):
        lines = []
        for (name, arity), poly in sorted(
            self._entries.items(), key=lambda kv: kv[0]
        ):
            lines.append("%s/%d:" % (name, arity))
            body = str(poly) or "  (top)"
            lines.extend("  " + line for line in body.splitlines())
        return "\n".join(lines)


def default_polyhedron(indicator):
    """Nonnegative orthant over the predicate's argument dimensions."""
    _, arity = indicator
    dims = tuple(arg_dimension(i) for i in range(1, arity + 1))
    return Polyhedron.nonnegative_orthant(dims)


def bottom_polyhedron(indicator):
    """The empty polyhedron over a predicate's argument dims."""
    _, arity = indicator
    dims = tuple(arg_dimension(i) for i in range(1, arity + 1))
    return Polyhedron.bottom(dims)


def instantiate_on_args(polyhedron, atom, norm="structural"):
    """Instantiate a predicate's size polyhedron on an atom's arguments.

    Substitutes the size polynomial of the atom's i-th argument for the
    dimension ``("arg", i)``, yielding constraints over logical-variable
    sizes.  This is how a subgoal ``append(E, [X|F], P)`` turns the fact
    constraint ``arg1 + arg2 = arg3`` into ``E + (2 + X + F) = P``
    (Example 3.1).
    """
    exprs = argument_size_exprs(atom, norm)
    if len(exprs) != len(polyhedron.dimensions):
        raise ValueError(
            "atom %s has %d arguments; polyhedron has %d dimensions"
            % (atom, len(exprs), len(polyhedron.dimensions))
        )
    mapping = dict(zip(polyhedron.dimensions, exprs))
    return [c.substitute(mapping) for c in polyhedron.system]


def literal_constraints(literal, env, norm="structural"):
    """The size constraints a positive body literal imports, or None
    when its predicate is bottom in *env* (no derivable facts).

    ``=`` equates the sizes of its two sides; other builtins
    (comparisons) supply no size information (Example 5.1); any other
    literal instantiates its predicate's polyhedron on its arguments.
    """
    indicator = literal.indicator
    if indicator in BUILTIN_PREDICATES:
        if indicator[0] == "=":
            left, right = literal.atom.args
            norm = get_norm(norm)
            return [
                Constraint.eq(norm.size_expr(left), norm.size_expr(right))
            ]
        return []
    polyhedron = env.get(indicator)
    if polyhedron.is_empty():
        return None
    return instantiate_on_args(polyhedron, literal.atom, norm)


def variable_nonnegativity(atoms, norm="structural"):
    """Constraints ``size(V) >= 0`` for every variable of *atoms*."""
    norm = get_norm(norm)
    seen = set()
    constraints = []
    for atom in atoms:
        for var in atom.variables():
            name = size_variable(var)
            if name not in seen:
                seen.add(name)
                constraints.append(Constraint.ge(LinearExpr.of(name)))
    return constraints
