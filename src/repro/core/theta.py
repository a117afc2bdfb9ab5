"""Theta selection for mutual recursion (Section 6.1, Appendix C).

For a single-predicate SCC there is one theta, ``theta_ii = 1``: the
weighted bound-argument size must drop by at least one on every
self-recursive call.

With mutual recursion the analyzer must pick ``theta_ij in {0, 1}`` per
dependency edge so that, viewed as edge weights, *every cycle of the
dependency graph has positive weight*.  The paper's procedure:

1. set ``theta_ij = 0`` (i != j) where the dual constraints force it —
   we test this semantically: if the edge's pair systems together with
   lambda >= 0 cannot tolerate ``theta_ij = 1``, it is forced to 0.
   One LP pins the first unsettled edge's theta to 1.  A point it finds
   also settles every unsettled edge whose theta is 1 there, or
   positive when no row has a constant term: the solutions then form a
   cone, and ``x / x[theta_f]`` pins ``theta_f = 1``.  The dual system
   of Eqs. 5–9 is homogeneous, so one LP settles every edge of a ring
   SCC.  Only an infeasible LP of its own sets an edge to 0;
2. set every other theta to 1;
3. run the min-plus closure (Floyd's algorithm) and reject zero-weight
   cycles ("strong evidence of nontermination").

Appendix C drops the nonnegativity restriction on theta: thetas become
rational unknowns, and positivity of every cycle is enforced through
Papadimitriou's shortest-path variables ``sigma_ij`` with

    sigma_ij <= theta_ij            (base case)
    sigma_ij <= theta_ik + sigma_kj (path step, k != i, j)
    sigma_ii >= 1                   (positive cycles)

after which the sigma variables are eliminated by Fourier–Motzkin and
the surviving constraints joined with the lambda system.
"""

from __future__ import annotations

from fractions import Fraction

from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import feasible_point
from repro.graph.minplus import find_nonpositive_cycle
from repro.core.dual import theta_var


def choose_thetas(edges, combined_system, lambda_system):
    """Assign 0/1 weights to SCC dependency *edges*.

    *edges* are ``(i, j)`` indicator pairs that actually occur as
    (rule head, recursive subgoal) combinations.  *combined_system* is
    the union of all pairs' lambda/theta constraints;
    *lambda_system* carries the lambda >= 0 rows.

    Returns ``{edge: Fraction}`` in ``repr`` order.  Self-loops are
    always 1; a cross edge is 1 exactly when the duals tolerate
    ``theta = 1`` on it, found as step 1 of the module docstring says.
    """
    ordered = sorted(set(edges), key=repr)
    thetas = dict.fromkeys(ordered, Fraction(1))
    open_edges = [edge for edge in ordered if edge[0] != edge[1]]
    if not open_edges:
        return thetas
    rows = list(ConstraintSystem([*combined_system, *lambda_system]))
    cone = all(row.const == 0 for row in rows)
    while open_edges:
        edge = open_edges.pop(0)
        pin = Constraint.eq(LinearExpr.of(theta_var(*edge)), 1)
        point = feasible_point(rows + [pin])
        if point is None:
            thetas[edge] = Fraction(0)
            continue
        still_open = []
        for other in open_edges:
            value = point.get(theta_var(*other), 0)
            if value != 1 and not (cone and value > 0):
                still_open.append(other)
        open_edges = still_open
    return thetas


def zero_weight_cycle(members, thetas):
    """A witness cycle of zero total weight, or None.

    *members* are the SCC's predicate indicators; *thetas* maps edges
    to their chosen weights (all nonnegative here, so a non-positive
    cycle is exactly a zero-weight one).
    """
    weights = {edge: weight for edge, weight in thetas.items()}
    return find_nonpositive_cycle(list(members), weights)


def substitute_thetas(system, thetas):
    """Replace theta variables by their chosen values."""
    mapping = {
        theta_var(*edge): LinearExpr.constant(value)
        for edge, value in thetas.items()
    }
    return system.substitute(mapping)


# -- Appendix C: negative weights --------------------------------------------


def sigma_var(i, j):
    """The shortest-path variable for the (i, j) node pair."""
    return (
        "sigma",
        i.name, i.arity, str(i.adornment),
        j.name, j.arity, str(j.adornment),
    )


def path_constraints(members, edges):
    """Papadimitriou path constraints over sigma/theta, sigma eliminated.

    Returns a :class:`ConstraintSystem` over the theta variables of
    *edges* that is satisfiable exactly when the thetas admit only
    positive-weight cycles.  (For SCCs of up to a handful of predicates
    the Fourier–Motzkin elimination is immediate; the paper notes the
    polynomial bound comes from LP theory, while "in practice, our
    program quietly runs Fourier–Motzkin elimination on the sigma_ij".)
    """
    members = sorted(set(members), key=repr)
    edges = sorted(set(edges), key=repr)
    system = ConstraintSystem()

    # Base cases: sigma_ij <= theta_ij for existing edges.
    for i, j in edges:
        system.add(
            Constraint.le(
                LinearExpr.of(sigma_var(i, j)),
                LinearExpr.of(theta_var(i, j)),
            )
        )

    # Path steps: sigma_ij <= theta_ik + sigma_kj for k != i, j with an
    # i -> k edge.
    for i, k in edges:
        for j in members:
            if k == j:
                continue
            system.add(
                Constraint.le(
                    LinearExpr.of(sigma_var(i, j)),
                    LinearExpr.of(theta_var(i, k))
                    + LinearExpr.of(sigma_var(k, j)),
                )
            )

    # Positive cycles: sigma_ii >= 1.
    for member in members:
        system.add(Constraint.ge(LinearExpr.of(sigma_var(member, member)), 1))

    sigma_names = [
        sigma_var(i, j) for i in members for j in members
    ]
    return eliminate_all(system, sigma_names)
