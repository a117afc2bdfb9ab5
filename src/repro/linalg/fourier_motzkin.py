"""Fourier–Motzkin projection: the analyzer's entry points.

Section 4 of the paper: "This set of constraints is very amenable to
reduction by Fourier–Motzkin elimination ... a variable is eliminated by
'cancelling' all positive occurrences with all negative occurrences,
pairwise, creating new rows."

Elimination preserves satisfiability and computes the exact projection
of the solution set onto the remaining variables.  Both entry points
run on the integer row engine of :mod:`repro.linalg.rows`:

- :func:`eliminate_all` (dualize's ``w``, θ's ``σ``) substitutes away
  every variable an equality mentions — cheaper than combination, and
  it produces no spurious rows — then combines the rest pairwise;
- :func:`eliminate_all_tracked` (projection inside inter-argument
  inference, and the convex hull of operands too large for double
  description) combines with Chernikov ancestor pruning, then tidies
  small results with the exact LP redundancy prune
  :func:`_prune_with_lp`.  Its result contains the exact projection
  but can be strictly larger (see that function).
"""

from __future__ import annotations

from repro.errors import FMBlowupError
from repro.linalg.constraints import ConstraintSystem
from repro.linalg.rows import (
    RowKernel,
    flagged_rows,
    intern_variables,
    materialize,
    split_equalities,
    substitute_equalities,
    tracked_project,
)

__all__ = [
    "FMBlowupError",
    "eliminate_all",
    "eliminate_all_tracked",
]


def eliminate_all(system, variables, prune=True):
    """Eliminate every variable in *variables*, cheapest-first.

    Variables an equality mentions go first, by Gaussian substitution
    (smallest ``repr`` first).  The rest are combined pairwise, each
    time the one with the fewest new rows (|positives| × |negatives|,
    the standard FM heuristic, ties by ``repr``); the first combination
    splits every surviving equality into its inequality pair.  With
    *prune*, only the tightest row per linear part survives each
    combination.
    """
    names = intern_variables(system)
    index = {var: j for j, var in enumerate(names)}
    remaining = {index[var] for var in variables if var in index}
    rows = substitute_equalities(flagged_rows(system, names), remaining)
    kernel = RowKernel(names, split_equalities(rows))
    j = kernel.choose(remaining)
    if j is None:
        return materialize(rows, names)
    while j is not None:
        kernel.eliminate(j, prune=prune)
        remaining.discard(j)
        j = kernel.choose(remaining)
    return kernel.to_system()


def eliminate_all_tracked(system, variables, max_rows=600):
    """Projection by pure-inequality FM with Chernikov ancestor pruning.

    Equalities are split into inequality pairs; every row carries the
    set of *original* row indices it was combined from, and after ``k``
    eliminations any row whose ancestor set exceeds ``k + 1`` rows is
    dropped (Chernikov's rule).  This bounds the classic FM blow-up.
    The result is sound — it contains the exact projection — but not
    always exact: a combined row already present keeps its first
    ancestor set and the copy's is lost, so the rule can later skip a
    row the projection needs.  On the lifted hull systems of
    inter-argument inference that dropped a facet in 2 of 514 corpus
    hulls; no corpus projection is affected.

    Raises :class:`FMBlowupError` once the intermediate row count
    passes *max_rows* — callers choose a sound over-approximation
    instead.  A final dominance pass and, on results of 2 to 60
    distinct rows, the exact LP prune yield a tidy result.
    """
    kernel = tracked_project(system, variables, max_rows=max_rows)
    # The exact LP prune is quadratic in rows x simplex cost; only tidy
    # results that are already small (the quadratic pass on a big
    # system would dominate everything else).
    small = 1 < len(set(kernel.rows)) <= 60
    kernel._dominance()
    result = kernel.to_system()
    return _prune_with_lp(result) if small else result


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
