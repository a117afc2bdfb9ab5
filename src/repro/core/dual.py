"""LP duality: from Eq. 1 systems to linear constraints on lambda.

The decrease requirement (Eq. 2) is

    for all x, y, phi satisfying Eq. 1:
        lambda_i . x  >=  lambda_j . y  +  theta_ij .

Substituting ``x = a + A.phi`` and ``y = b + B.phi`` (and noting that
``x, y >= 0`` is automatic because a, A, b, B and phi are nonnegative —
the observation the paper uses to eliminate the dual variables u and v
in closed form), the requirement becomes: the affine function

    h(phi) = (lambda.A - mu.B).phi + (lambda.a - mu.b - theta)

is nonnegative over ``S = { phi >= 0 : imported constraints hold }``.
By the affine form of Farkas' lemma (= LP duality, the paper's Eq. 5–9)
this holds iff there are multipliers ``w_k`` — nonnegative for imported
inequalities, free for equalities — with, coefficient-wise,

    lambda.A[v] - mu.B[v] - sum_k w_k G[k][v]  >=  0      (each phi var v)
    lambda.a    - mu.b    - sum_k w_k g_k      >=  theta  (constant row)

(the "only if" direction needs S nonempty; when S is empty the rule can
never reach the recursive call and the certificate is vacuously fine —
the analyzer keeps the sufficient direction either way, matching the
paper's "sufficient condition" caveat).

Everything is *linear in (lambda, w, theta)*, the paper's key
observation, so one Fourier–Motzkin pass eliminating the undistinguished
``w`` leaves constraints over the distinguished lambda (and theta)
variables only — the paper's Eq. 9 after the practical elimination step.
"""

from __future__ import annotations

import itertools

from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.linexpr import LinearExpr

_pair_counter = itertools.count(1)


def lam_var(node, position):
    """The lambda multiplier for adorned predicate *node*'s bound
    argument at 1-based *position* (paper: a component of lambda_i)."""
    return ("lam", node.name, node.arity, str(node.adornment), position)


def theta_var(head_node, subgoal_node):
    """The theta offset variable for adorned dependency edge i -> j."""
    return (
        "theta",
        head_node.name,
        head_node.arity,
        str(head_node.adornment),
        subgoal_node.name,
        subgoal_node.arity,
        str(subgoal_node.adornment),
    )


def w_var(pair_id, k):
    """The k-th dual multiplier variable of one pair."""
    return ("w", pair_id, k)


def pair_constraints(system, eliminate_w=True):
    """Lambda/theta constraints for one :class:`RuleSizeSystem`.

    Returns a :class:`ConstraintSystem` over ``lam_var(...)`` and the
    pair's ``theta_var(...)``; with ``eliminate_w=False`` the raw
    system (including the w multipliers) is returned — used by the
    polynomial-bound variant the paper mentions ("to claim a
    theoretical polynomial time bound, we stop with Eq. 8") and by the
    ablation benchmarks.
    """
    pair_id = next(_pair_counter)
    lam_head = [lam_var(system.head_node, p) for p in system.x_positions]
    lam_sub = [lam_var(system.subgoal_node, p) for p in system.y_positions]
    theta = theta_var(system.head_node, system.subgoal_node)

    constraints = ConstraintSystem()
    w_names = []

    # Coefficient rows, one per phi variable.
    for phi in system.phi_variables():
        expr = LinearExpr()
        for lam, x_expr in zip(lam_head, system.x_exprs):
            coefficient = x_expr.coefficient(phi)
            if coefficient:
                expr = expr + LinearExpr.of(lam, coefficient)
        for mu, y_expr in zip(lam_sub, system.y_exprs):
            coefficient = y_expr.coefficient(phi)
            if coefficient:
                expr = expr - LinearExpr.of(mu, coefficient)
        for k, imported in enumerate(system.imported):
            coefficient = imported.expr.coefficient(phi)
            if coefficient:
                expr = expr - LinearExpr.of(w_var(pair_id, k), coefficient)
        constraints.add(Constraint.ge(expr))

    # Constant row: lambda.a - mu.b - w.g - theta >= 0.
    expr = LinearExpr()
    for lam, x_expr in zip(lam_head, system.x_exprs):
        if x_expr.const:
            expr = expr + LinearExpr.of(lam, x_expr.const)
    for mu, y_expr in zip(lam_sub, system.y_exprs):
        if y_expr.const:
            expr = expr - LinearExpr.of(mu, y_expr.const)
    for k, imported in enumerate(system.imported):
        if imported.expr.const:
            expr = expr - LinearExpr.of(w_var(pair_id, k), imported.expr.const)
    expr = expr - LinearExpr.of(theta)
    constraints.add(Constraint.ge(expr))

    # Multiplier sign conditions: w_k >= 0 for imported inequalities.
    for k, imported in enumerate(system.imported):
        w_names.append(w_var(pair_id, k))
        if not imported.is_equality():
            constraints.add(Constraint.ge(LinearExpr.of(w_var(pair_id, k))))

    if not eliminate_w:
        return constraints

    return eliminate_all(constraints, w_names)


def lambda_nonnegativity(nodes_with_positions):
    """Constraints ``lam >= 0`` (paper's Eq. 7) for every (adorned
    node, bound positions) pair."""
    system = ConstraintSystem()
    for node, positions in nodes_with_positions:
        for position in positions:
            system.add(Constraint.ge(LinearExpr.of(lam_var(node, position))))
    return system
