"""The convex hull by the lifted construction, kept as the oracle.

``conv(P1 ∪ P2)`` (closed) is the projection onto ``x`` of

    x = y1 + y2,   A1.y1 + b1.m1 >= 0,   A2.y2 + b2.m2 >= 0,
    m1 + m2 = 1,   m1, m2 >= 0

for nonempty ``P1``, ``P2`` (with ``m_i = 0`` the ``y_i`` range over
the recession cone, which keeps the construction exact for unbounded
operands).  The oracle eliminates every auxiliary variable by exact
Fourier–Motzkin one variable at a time (an equality's variable first,
else the fewest positive × negative occurrences), and tidies each
step's result with the LP redundancy prune, which keeps the
elimination small.

It shares no code with the double-description hull of
:meth:`repro.linalg.polyhedron.Polyhedron.join_exact`: the lifted
system is built here from expressions, the elimination is the object
pipeline of :mod:`tests.property.fm_oracle`, the prune is
:func:`tests.property.simplex_oracle.oracle_prune`, and emptiness is
one simplex feasibility check per operand.
"""

from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.polyhedron import Polyhedron
from repro.linalg.simplex import is_feasible

from tests.property.fm_oracle import oracle_eliminate
from tests.property.simplex_oracle import oracle_prune


def oracle_hull(first, second):
    """The closed convex hull of two polyhedra over one dimension
    list, as a :class:`Polyhedron` with no redundant inequality."""
    if not is_feasible(first.system):
        return Polyhedron(second.dimensions, second.system)
    if not is_feasible(second.system):
        return Polyhedron(first.dimensions, first.system)
    dimensions = first.dimensions
    lifted = ConstraintSystem()
    copies = []
    for side, poly in enumerate((first, second)):
        y = {d: ("oracle_y", side, d) for d in dimensions}
        m = ("oracle_m", side)
        copies.append((y, m))
        for constraint in poly.system:
            expr = LinearExpr(
                {y[var]: c for var, c in constraint.terms}
            ) + LinearExpr.of(m, constraint.const)
            lifted.add(Constraint(expr, constraint.relation))
        lifted.add(Constraint.ge(LinearExpr.of(m)))
    (y1, m1), (y2, m2) = copies
    for d in dimensions:
        lifted.add(Constraint.eq(
            LinearExpr.of(d), LinearExpr.of(y1[d]) + LinearExpr.of(y2[d])
        ))
    lifted.add(Constraint.eq(LinearExpr.of(m1) + LinearExpr.of(m2), 1))
    system = oracle_prune(lifted)
    remaining = lifted.variables() - set(dimensions)
    while remaining & system.variables():
        var = min(remaining & system.variables(),
                  key=lambda v: _cost(system, v))
        system = oracle_prune(oracle_eliminate(system, var))
        remaining.discard(var)
    return Polyhedron(dimensions, system)


def _cost(system, var):
    """``(-1, repr)`` when an equality mentions *var*, else the number
    of rows one combination step makes, then ``repr``."""
    positives = negatives = 0
    for constraint in system:
        coeff = constraint.expr.coefficient(var)
        if coeff and constraint.is_equality():
            return (-1, repr(var))
        if coeff > 0:
            positives += 1
        elif coeff < 0:
            negatives += 1
    return (positives * negatives, repr(var))
