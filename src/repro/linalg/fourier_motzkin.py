"""Fourier–Motzkin projection: the analyzer's entry points.

Section 4 of the paper: "This set of constraints is very amenable to
reduction by Fourier–Motzkin elimination ... a variable is eliminated by
'cancelling' all positive occurrences with all negative occurrences,
pairwise, creating new rows."

Elimination preserves satisfiability and computes the exact
projection of the solution set onto the remaining variables.  Both
entry points run the same greedy elimination on the integer row engine
of :mod:`repro.linalg.rows`: every variable an equality mentions is
substituted away first — cheaper than combination, and it produces no
spurious rows — then the rest are combined pairwise, cheapest first,
with per-step dominance pruning.  They differ only in what leaves:

- :func:`eliminate_all` (dualize's ``w``, θ's ``σ``) returns the rows
  as they stand, equalities kept;
- :func:`eliminate_all_tracked` (``Polyhedron.project``, the
  projection inside inter-argument inference) enforces a row budget,
  returns pure ``>=`` rows after a final dominance pass, and tidies
  small results with the exact LP redundancy prune
  :func:`_prune_with_lp`; an empty projection of any size comes out as
  the single row ``-1 >= 0``.
"""

from __future__ import annotations

from repro.errors import FMBlowupError
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.rows import (
    RowKernel,
    flagged_rows,
    intern_variables,
    materialize,
    split_equalities,
    substitute_equalities,
)

__all__ = [
    "FMBlowupError",
    "eliminate_all",
    "eliminate_all_tracked",
]


def eliminate_all(system, variables):
    """Eliminate every variable in *variables*, cheapest-first.

    Variables an equality mentions go first, by Gaussian substitution
    (smallest ``repr`` first).  The rest are combined pairwise, each
    time the one with the fewest new rows (|positives| × |negatives|,
    the standard FM heuristic, ties by ``repr``); the first combination
    splits every surviving equality into its inequality pair.  Only
    the tightest row per linear part survives each combination.
    """
    kernel, rows = _greedy(system, variables)
    if rows is not None:
        return materialize(rows, kernel.variables)
    return kernel.to_system()


def eliminate_all_tracked(system, variables, max_rows=600):
    """The exact projection of *system* with *variables* eliminated, as
    tidy pure ``>=`` rows.

    Runs the greedy elimination of :func:`eliminate_all`, splits the
    surviving equalities, and keeps the tightest row per linear part.
    Results of 2 to 60 rows then go through the exact LP prune, so they
    come out irredundant; larger ones get one feasibility LP.  An
    empty projection comes out as the single row ``-1 >= 0``.

    Raises :class:`FMBlowupError` once the row count after a
    combination passes *max_rows* — callers choose a sound
    over-approximation instead.  (The name is older than the single
    elimination mode; ``bench/tracing.py`` hooks it by name.)
    """
    kernel, _ = _greedy(system, variables, max_rows=max_rows)
    kernel._dominance()
    result = kernel.to_system()
    if len(result) <= 1:
        return result
    # The exact LP prune is quadratic in rows x simplex cost; only tidy
    # results that are already small (the quadratic pass on a big
    # system would dominate everything else).  A big one still costs
    # one LP, since a conflict among kept variables leaves no constant
    # row.  It runs on the input or the result, whichever has fewer
    # rows: either is empty exactly when the other is, and the simplex
    # cost grows fast with rows.
    if len(result) <= 60:
        return _prune_with_lp(result)
    from repro.linalg.simplex import feasible_point

    if feasible_point(list(min(system, result, key=len))) is None:
        return _contradiction()
    return result


def _greedy(system, variables, max_rows=None):
    """The greedy elimination of *variables* from *system*.

    Returns ``(kernel, rows)``.  When no variable is left to combine
    after the substitutions, *rows* are the substituted flagged rows
    (equalities kept) and *kernel* holds them split; otherwise *rows*
    is None and *kernel* holds the combined rows.
    """
    names = intern_variables(system)
    index = {var: j for j, var in enumerate(names)}
    remaining = {index[var] for var in variables if var in index}
    rows = substitute_equalities(flagged_rows(system, names), remaining)
    kernel = RowKernel(names, split_equalities(rows))
    j = kernel.choose(remaining)
    if j is None:
        return kernel, rows
    while j is not None:
        kernel.eliminate(j)
        if max_rows is not None and len(kernel) > max_rows:
            raise FMBlowupError("elimination exceeded %d rows" % max_rows)
        remaining.discard(j)
        j = kernel.choose(remaining)
    return kernel, None


def _prune_with_lp(system):
    """Drop every inequality entailed by the others — one pass; an
    empty system becomes the single row ``-1 >= 0``.

    Rows are tentatively removed in order; a candidate is tested
    against the rows still alive (removed rows stay removed, rows
    already proven necessary are never rebuilt or re-tested), and the
    simplex sees a plain constraint list — no per-candidate
    :class:`ConstraintSystem` re-normalization.

    One LP finds a point ``x0`` of the whole system; it satisfies every
    subset of the rows, so each candidate LP starts from it
    (``start=x0``) and runs phase 2 only.  Entailment is a fact about
    the polyhedron, not the pivot path, so the kept rows are the same.
    No ``x0`` means no point at all: the system is the contradiction.
    """
    from repro.linalg.simplex import entails, feasible_point

    rows = list(system)
    start = feasible_point(rows)
    if start is None:
        return _contradiction()
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


def _contradiction():
    """The empty projection, whatever the dimensions: ``-1 >= 0``."""
    return ConstraintSystem([Constraint.from_row((), (), -1)])
