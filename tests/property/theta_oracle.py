"""Per-edge theta selection, kept as the oracle.

This is :func:`repro.core.theta.choose_thetas` as it ran before one
feasible point could settle several edges: every cross edge gets its
own LP on the combined system, the lambda rows and ``theta = 1``.
``test_theta_agreement.py`` requires the library to choose the same
thetas on every SCC the pipeline hands it.
"""

from fractions import Fraction

from repro.core.dual import theta_var
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import is_feasible


def oracle_thetas(edges, combined_system, lambda_system):
    """``{edge: 0 or 1}``: self-loops 1, every cross edge 1 exactly
    when its own probe LP is feasible."""
    thetas = {}
    for edge in sorted(set(edges), key=repr):
        i, j = edge
        if i == j:
            thetas[edge] = Fraction(1)
            continue
        if _tolerates_one(edge, combined_system, lambda_system):
            thetas[edge] = Fraction(1)
        else:
            thetas[edge] = Fraction(0)
    return thetas


def _tolerates_one(edge, combined_system, lambda_system):
    """Can this edge's theta be 1 without contradicting the duals?"""
    probe = ConstraintSystem(combined_system)
    probe.extend(lambda_system)
    probe.add(Constraint.eq(LinearExpr.of(theta_var(*edge)), 1))
    return is_feasible(probe)
