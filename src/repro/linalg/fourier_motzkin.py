"""Fourier–Motzkin variable elimination with redundancy pruning.

Section 4 of the paper: "This set of constraints is very amenable to
reduction by Fourier–Motzkin elimination ... a variable is eliminated by
'cancelling' all positive occurrences with all negative occurrences,
pairwise, creating new rows."

Elimination preserves satisfiability and computes the exact projection
of the solution set onto the remaining variables.  Equalities containing
the eliminated variable are used for Gaussian substitution first — it is
both cheaper and produces no spurious rows.

Every combination step runs on the dense integer row kernel of
:mod:`repro.linalg.rows`: variables interned to dense indices, rows as
gcd-normalized integer tuples, Chernikov ancestor sets as bitmasks,
pos/neg occurrence counters maintained incrementally.  Constraint
objects are materialized only at the projection boundary.

Redundancy control: syntactic normalization + de-duplication happens in
:class:`~repro.linalg.constraints.Constraint`, and
:func:`prune_redundant` offers quick pairwise-dominance pruning plus an
optional exact LP-based pass (used by the ablation benchmarks).
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import FMBlowupError
from repro.linalg.constraints import ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.rows import RowKernel, tracked_project

__all__ = [
    "FMBlowupError",
    "eliminate",
    "eliminate_all",
    "eliminate_all_tracked",
    "project_onto",
    "prune_redundant",
]


def eliminate(system, var, prune=True):
    """Eliminate *var* from *system*; the result has no occurrence of it.

    Returns a new :class:`ConstraintSystem` over the remaining
    variables whose solution set is exactly the projection.
    """
    relevant_eq = None
    for constraint in system:
        if constraint.is_equality() and var in constraint.variables():
            relevant_eq = constraint
            break

    if relevant_eq is not None:
        return _eliminate_by_substitution(system, var, relevant_eq)
    return _kernel_combination(system, var, prune=prune)


def _kernel_combination(system, var, prune=True):
    """Classic FM on the row kernel: pair each positive occurrence of
    *var* with each negative one, then prune."""
    workspace = RowKernel.from_system(system)
    j = workspace.index.get(var)
    if j is None:
        result = workspace.to_system()
        return prune_redundant(result) if prune else result
    workspace.eliminate(j, prune=prune)
    return workspace.to_system()


def _eliminate_by_substitution(system, var, equality):
    """Solve *equality* for *var* and substitute everywhere else."""
    coeff = equality.expr.coefficient(var)
    # var = -(rest)/coeff  where  expr = coeff*var + rest = 0
    rest = equality.expr - LinearExpr.of(var, coeff)
    replacement = rest * (Fraction(-1) / coeff)
    result = ConstraintSystem()
    for constraint in system:
        if constraint is equality:
            continue
        if var in constraint.variables():
            result.add(constraint.substitute({var: replacement}))
        else:
            result.add(constraint)
    return result


def eliminate_all(system, variables, prune=True, lp_prune_threshold=None):
    """Eliminate every variable in *variables*, cheapest-first.

    The next variable to eliminate is chosen greedily to minimize the
    number of new rows (|positives| * |negatives|), the standard FM
    heuristic.  Variables reachable through an equality are substituted
    away first (cost "-1"); once the first pairwise combination happens
    no equality survives, and the remaining eliminations run entirely
    inside the integer row kernel.

    FM can square the row count at every step; *lp_prune_threshold*
    (when set) bounds the blow-up by running the exact LP-based
    redundancy removal whenever the intermediate system exceeds that
    many rows.  This is the practical move that keeps repeated convex
    hulls (inter-argument inference) tractable.
    """
    remaining = set(variables)
    current = system
    while remaining:
        costs = _elimination_costs(current, remaining)
        if not costs:
            break
        var = min(costs, key=lambda v: costs[v])
        if costs[var][0] >= 0:
            # No equality mentions any remaining variable: every step
            # from here on is pure combination — run them all in the
            # row kernel and materialize once.
            return _kernel_eliminate_all(
                current, remaining, prune, lp_prune_threshold
            )
        current = eliminate(current, var, prune=prune)
        if (
            lp_prune_threshold is not None
            and len(current) > lp_prune_threshold
        ):
            current = prune_redundant(current, use_lp=True)
        remaining.discard(var)
    return current


def _kernel_eliminate_all(system, remaining, prune, lp_prune_threshold):
    """Finish an all-combination elimination inside the row kernel."""
    workspace = RowKernel.from_system(system)
    indices = {
        workspace.index[var] for var in remaining
        if var in workspace.index
    }
    while indices:
        j = workspace.choose(indices)
        if j is None:
            break
        workspace.eliminate(j, prune=prune)
        indices.discard(j)
        if (
            lp_prune_threshold is not None
            and len(workspace) > lp_prune_threshold
        ):
            pruned = prune_redundant(workspace.to_system(), use_lp=True)
            workspace = RowKernel.from_system(pruned)
            # Re-intern: already-eliminated variables occur in no row,
            # so they simply drop out of the new index.
            indices = {
                workspace.index[var] for var in remaining
                if var in workspace.index
            }
    return workspace.to_system()


def _elimination_costs(system, remaining):
    """Greedy cost of every *remaining* variable present in *system*,
    computed in one pass over the rows (the per-candidate rescan this
    replaces was O(rows × vars) per elimination step).

    Returns ``{var: (cost, repr(var))}`` — ``cost`` is -1 when an
    equality mentions the variable (substitution is always cheapest),
    else |positives| × |negatives|.
    """
    counts = {}
    for constraint in system:
        is_equality = constraint.is_equality()
        expr = constraint.expr
        for var in constraint.variables():
            if var not in remaining:
                continue
            entry = counts.get(var)
            if entry is None:
                entry = counts[var] = [0, 0, False]
            if is_equality:
                entry[2] = True
            elif expr.coefficient(var) > 0:
                entry[0] += 1
            else:
                entry[1] += 1
    return {
        var: ((-1, repr(var)) if has_eq
              else (positives * negatives, repr(var)))
        for var, (positives, negatives, has_eq) in counts.items()
    }


def project_onto(system, keep, prune=True, lp_prune_threshold=None):
    """Project the solution set onto the variables in *keep*."""
    keep = set(keep)
    to_eliminate = system.variables() - keep
    return eliminate_all(
        system, to_eliminate, prune=prune,
        lp_prune_threshold=lp_prune_threshold,
    )


def eliminate_all_tracked(
    system, variables, final_lp_prune=True, max_rows=600,
):
    """Projection by pure-inequality FM with Chernikov ancestor pruning.

    Equalities are split into inequality pairs; every row carries the
    set of *original* row indices it was combined from, and after ``k``
    eliminations any row whose ancestor set exceeds ``k + 1`` rows is
    redundant and dropped (Chernikov's rule).  This keeps the exact
    projection while bounding the classic FM blow-up, which makes the
    repeated convex hulls of inter-argument inference tractable.

    Raises :class:`FMBlowupError` once the intermediate row count
    passes *max_rows* — callers choose a sound over-approximation
    instead.  A final exact LP prune (small by then) yields a tidy
    result.
    """
    result = tracked_project(system, variables, max_rows=max_rows)
    # The exact LP prune is quadratic in rows x simplex cost; only tidy
    # results that are already small (the quadratic pass on a big
    # system would dominate everything else).
    if final_lp_prune and 1 < len(result) <= 60:
        return prune_redundant(result, use_lp=True)
    return prune_redundant(result)


def prune_redundant(system, use_lp=False):
    """Remove redundant inequality rows.

    Always applies the cheap pairwise-dominance test: a row
    ``e + c1 >= 0`` is dropped when another row ``e + c0 >= 0`` with
    ``c0 <= c1`` exists (same linear part, weaker constant).  With
    ``use_lp=True``, additionally removes every inequality implied by
    the others (exact, via simplex) — quadratic in system size but
    yields an irredundant description.
    """
    by_linear_part = {}
    equalities = []
    for constraint in system:
        if constraint.is_equality():
            equalities.append(constraint)
            continue
        linear_part = constraint.expr - LinearExpr.constant(
            constraint.expr.const
        )
        key = linear_part
        best = by_linear_part.get(key)
        if best is None or constraint.expr.const < best.expr.const:
            by_linear_part[key] = constraint
    pruned = ConstraintSystem(equalities)
    pruned.extend(by_linear_part.values())

    if not use_lp:
        return pruned
    return _prune_with_lp(pruned)


def _prune_with_lp(system):
    """Drop every inequality entailed by the others — one pass.

    Rows are tentatively removed in order; a candidate is tested
    against the rows still alive (removed rows stay removed, rows
    already proven necessary are never rebuilt or re-tested), and the
    simplex sees a plain constraint list — no per-candidate
    :class:`ConstraintSystem` re-normalization.

    One LP finds a point ``x0`` of the whole system; it satisfies every
    subset of the rows, so each candidate LP starts from it
    (``start=x0``) and runs phase 2 only.  Entailment is a fact about
    the polyhedron, not the pivot path, so the kept rows are the same.
    An infeasible system has no ``x0``: its candidates solve from
    scratch.
    """
    from repro.linalg.simplex import entails, feasible_point

    rows = list(system)
    start = feasible_point(rows)
    alive = [True] * len(rows)
    for position, candidate in enumerate(rows):
        if candidate.is_equality():
            continue
        alive[position] = False
        others = [
            row for index, row in enumerate(rows) if alive[index]
        ]
        if not entails(others, candidate, start=start):
            alive[position] = True
    return ConstraintSystem(
        row for index, row in enumerate(rows) if alive[index]
    )
