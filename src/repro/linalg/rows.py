"""Dense integer row kernel: the one Fourier–Motzkin engine.

Section 4 of the paper eliminates a variable "by 'cancelling' all
positive occurrences with all negative occurrences, pairwise, creating
new rows".  Every elimination in the analyzer runs here, in
machine-int arithmetic, with one implementation of each piece:

- **interning** — the variables of one projection are sorted by
  ``repr`` and mapped to dense indices once; a row is a tuple of
  integer coefficients plus an integer constant, read straight from
  each :class:`Constraint`'s canonical integer terms;
- **canonicalization** — :func:`normalize_row` is
  :func:`~repro.linalg.constraints.canonical_row`, the one routine
  :class:`Constraint` itself uses (``=`` rows sign-normalized by their
  first nonzero coefficient — first in index order = first in ``repr``
  order — then divided by the gcd of all entries), plus the drop of
  trivially true rows;
- **substitution** — :func:`substitute` is the integer Gaussian step
  on *flagged* rows ``(is_eq, coeffs, const)``: the first ``=`` row
  mentioning the variable is solved for it and substituted everywhere
  else;
- **combination** — :meth:`RowKernel.eliminate` pairs every positive
  occurrence with every negative one over pure ``>=`` rows;
- **dominance** — :meth:`RowKernel._dominance` keeps the tightest row
  per linear part;
- **greedy choice** — equalities first (:func:`substitute_equalities`,
  smallest ``repr`` first), then :meth:`RowKernel.choose`: fewest
  positives×negatives from incrementally maintained occurrence
  counters, ties by ``repr``.

Every caller hands pure ``>=`` rows to :class:`RowKernel`, so the
combination loop never inspects a relation:
:func:`~repro.linalg.fourier_motzkin.eliminate_all` and
:func:`~repro.linalg.fourier_motzkin.eliminate_all_tracked` after a
greedy substitution prefix.  There is one combination mode: every
elimination is exact, with per-step dominance.

Results leave as :meth:`Constraint.from_row` over the surviving
integer rows; no rational arithmetic happens on the way in or out.
The results are byte-identical to the self-contained object pipeline
kept as the test oracle (``tests/property/fm_oracle.py``) — same rows,
same canonical form, same insertion order — which the differential
tests in ``tests/property/test_kernel_props.py`` enforce.
"""

from __future__ import annotations

from repro.linalg.constraints import (
    Constraint,
    ConstraintSystem,
    EQ,
    GE,
    canonical_row,
)
from repro.obs import METRICS

__all__ = [
    "RowKernel",
]


def intern_variables(system):
    """The system's variables in ``repr`` order — the dense index map."""
    return tuple(sorted(system.variables(), key=repr))


def normalize_row(coeffs, const, equality=False):
    """:func:`~repro.linalg.constraints.canonical_row`, or None for a
    trivially true row (``c >= 0`` with ``c >= 0``, or ``0 = 0``) —
    the object path drops those on ``ConstraintSystem.add``."""
    coeffs, const = canonical_row(coeffs, const, equality)
    if any(coeffs) or (const if equality else const < 0):
        return coeffs, const
    return None


# -- flagged rows: the substitution prefix ------------------------------------


def flagged_rows(system, variables):
    """``(is_eq, coeffs, const)`` dense rows of *system*, in order —
    each constraint's integer terms placed at their interned index."""
    index = {var: i for i, var in enumerate(variables)}
    width = len(variables)
    rows = []
    for constraint in system:
        coeffs = [0] * width
        for var, c in constraint.terms:
            coeffs[index[var]] = c
        rows.append((constraint.is_equality(), tuple(coeffs),
                     constraint.const))
    return rows


def split_equalities(rows):
    """Flagged rows as pure ``>=`` rows: each ``=`` row becomes its
    pair ``e``, ``-e`` in place, as ``system.inequalities()`` splits
    it — except that the contradiction ``0 = 1`` keeps only ``-1 >= 0``:
    its other half is trivially true, and the object path drops it on
    ``ConstraintSystem.add``."""
    split = []
    for is_eq, coeffs, const in rows:
        if is_eq and not any(coeffs):
            split.append((coeffs, -const))
            continue
        split.append((coeffs, const))
        if is_eq:
            split.append((tuple(-c for c in coeffs), -const))
    return split


def materialize(rows, variables):
    """Flagged rows as a :class:`ConstraintSystem` (``=`` rows stay
    equalities)."""
    return ConstraintSystem(
        Constraint.from_row(variables, coeffs, const, EQ if is_eq else GE)
        for is_eq, coeffs, const in rows
    )


def substitute(rows, j):
    """Eliminate variable index *j* from flagged *rows* by integer
    Gaussian substitution; None when no ``=`` row mentions *j*.

    The first ``=`` row ``e`` mentioning *j* (coefficient ``c``) solves
    for it: every other row ``r`` with coefficient ``d`` becomes
    ``|c|*r - d*sign(c)*e`` — a positive multiple of the exact-fraction
    substitution, so canonicalization reaches the object path's form.
    Trivial rows and duplicates drop, as ``ConstraintSystem.add`` drops
    them.
    """
    eq_position = next(
        (position for position, (is_eq, coeffs, _) in enumerate(rows)
         if is_eq and coeffs[j]),
        None,
    )
    if eq_position is None:
        return None
    _, ecoeffs, econst = rows[eq_position]
    c = ecoeffs[j]
    m = abs(c)
    s = 1 if c > 0 else -1
    width = range(len(ecoeffs))
    result = []
    seen = set()
    for position, row in enumerate(rows):
        if position == eq_position:
            continue
        is_eq, coeffs, const = row
        d = coeffs[j]
        if d:
            ds = d * s
            combined = normalize_row(
                tuple(m * coeffs[i] - ds * ecoeffs[i] for i in width),
                m * const - ds * econst,
                is_eq,
            )
            if combined is None:
                continue
            row = (is_eq,) + combined
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result


def substitute_equalities(rows, remaining):
    """The greedy choice's first tier: while an ``=`` row mentions an
    index of *remaining*, substitute the smallest such index (first in
    ``repr`` order) away and discard it from *remaining*.  Returns the
    rows, which mention no remaining index in an ``=`` row."""
    while True:
        mentioned = {
            i for is_eq, coeffs, _ in rows if is_eq
            for i, c in enumerate(coeffs) if c
        }
        candidates = mentioned & remaining
        if not candidates:
            return rows
        j = min(candidates)
        rows = substitute(rows, j)
        remaining.discard(j)


# -- pure inequalities: combination -------------------------------------------


class RowKernel:
    """A pure-inequality FM workspace over dense integer rows."""

    __slots__ = ("variables", "index", "reprs", "rows", "pos", "neg")

    def __init__(self, variables, rows):
        self.variables = tuple(variables)
        self.index = {var: i for i, var in enumerate(self.variables)}
        self.reprs = [repr(var) for var in self.variables]
        self.rows = rows
        self.pos = [0] * len(self.variables)
        self.neg = [0] * len(self.variables)
        for coeffs, _ in rows:
            self._count(coeffs, 1)

    def __len__(self):
        return len(self.rows)

    def _count(self, coeffs, delta):
        pos = self.pos
        neg = self.neg
        for i, c in enumerate(coeffs):
            if c > 0:
                pos[i] += delta
            elif c < 0:
                neg[i] += delta

    # -- variable selection ----------------------------------------------------

    def choose(self, remaining):
        """The cheapest present variable index from *remaining*
        (min positives×negatives, ties by ``repr`` — the greedy
        choice's second tier), or None when none is present."""
        best_key = None
        best_index = None
        for j in remaining:
            occurrences = self.pos[j] + self.neg[j]
            if not occurrences:
                continue
            key = (self.pos[j] * self.neg[j], self.reprs[j])
            if best_key is None or key < best_key:
                best_key = key
                best_index = j
        return best_index

    # -- elimination -----------------------------------------------------------

    def eliminate(self, j):
        """Eliminate variable index *j* by pairwise combination.

        Positive rows pair with negative rows in row order, combined
        rows are gcd-normalized, trivial rows and duplicates are
        dropped, and the tightest row per linear part survives
        (first-occurrence order).
        """
        positives = []
        negatives = []
        kept = []
        seen = set()
        for row in self.rows:
            coefficient = row[0][j]
            if coefficient > 0:
                positives.append(row)
            elif coefficient < 0:
                negatives.append(row)
            elif row in seen:
                # Pass-through rows dedup on insertion, the way
                # ConstraintSystem.add does on the object path.
                self._count(row[0], -1)
            else:
                kept.append(row)
                seen.add(row)
        # Rows containing the variable leave the workspace.
        for row in positives:
            self._count(row[0], -1)
        for row in negatives:
            self._count(row[0], -1)
        width = range(len(self.variables))
        generated = 0
        for pcoeffs, pconst in positives:
            a = pcoeffs[j]
            for ncoeffs, nconst in negatives:
                b = -ncoeffs[j]
                combined = normalize_row(
                    tuple(b * pcoeffs[i] + a * ncoeffs[i] for i in width),
                    b * pconst + a * nconst,
                )
                if combined is None or combined in seen:
                    continue
                seen.add(combined)
                kept.append(combined)
                generated += 1
                self._count(combined[0], 1)

        self.rows = kept
        self._dominance()
        dominance_pruned = len(kept) - len(self.rows)
        if METRICS.enabled:
            METRICS.counter("fm.rows.generated").inc(generated)
            if dominance_pruned:
                METRICS.counter("fm.rows.pruned.dominance").inc(
                    dominance_pruned
                )

    def _dominance(self):
        """Keep the tightest row per linear part (first-occurrence
        order, smallest constant wins) and update the counters for
        every row dropped."""
        rows = self.rows
        best = {}
        for position, (coeffs, const) in enumerate(rows):
            current = best.get(coeffs)
            if current is None:
                best[coeffs] = position
                continue
            self._count(coeffs, -1)
            if const < rows[current][1]:
                best[coeffs] = position
        self.rows = [rows[p] for p in best.values()]

    # -- boundary --------------------------------------------------------------

    def to_system(self):
        """Materialize the surviving rows, in order, as canonical
        ``>=`` constraints."""
        return ConstraintSystem(
            Constraint.from_row(self.variables, coeffs, const)
            for coeffs, const in self.rows
        )
