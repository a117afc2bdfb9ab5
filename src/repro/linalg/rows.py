"""Dense integer row kernel for Fourier–Motzkin elimination.

The object pipeline (:class:`~repro.linalg.linexpr.LinearExpr` /
:class:`~repro.linalg.constraints.Constraint`) pays dict arithmetic,
Fraction normalization, and a sorted ``items()`` pass *per combined
row* — for every positive×negative pair, before any pruning can reject
it.  This module runs the combination loops in machine-int arithmetic
instead:

- **interning** — the variables of one projection are sorted by
  ``repr`` (the tie-break order the object path uses everywhere) and
  mapped to dense indices once; a row is a plain tuple of integer
  coefficients plus an integer constant;
- **GCD normalization** — rows are divided by the gcd of all entries
  including the constant, exactly mirroring the canonical form of
  :class:`Constraint` (``>=`` rows keep their sign; ``=`` rows flip so
  the first nonzero coefficient — first in index order = first in
  ``repr`` order — is positive);
- **Chernikov ancestors** — history-tracked elimination keeps the set
  of original row indices as an int bitmask; ``int.bit_count`` replaces
  frozenset unions;
- **occurrence counters** — per-variable positive/negative occurrence
  counts are maintained incrementally as rows enter and leave the
  workspace, so greedy variable selection is O(vars) per step instead
  of a full rows×vars rescan.

Constraint objects are materialized only at the projection boundary
(:meth:`RowKernel.to_system`); every intermediate row lives and dies as
a tuple of ints.  The results are byte-identical to the object
pipeline kept as the test oracle (``tests/property/fm_oracle.py``) —
same rows, same canonical form, same insertion order — which the
differential tests in ``tests/property/test_kernel_props.py`` enforce.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from repro.errors import FMBlowupError
from repro.linalg.constraints import Constraint, ConstraintSystem, EQ, GE
from repro.linalg.linexpr import LinearExpr
from repro.obs import METRICS

__all__ = [
    "RowKernel",
    "StagedEliminator",
    "FMBlowupError",
    "row_of_constraint",
    "constraint_of_row",
]


def intern_variables(system):
    """The system's variables in ``repr`` order — the dense index map."""
    return tuple(sorted(system.variables(), key=repr))


def row_of_constraint(constraint, variables):
    """``(coeffs, const)`` integer row of a canonical constraint.

    Constraints normalize to integer coefficients with gcd 1 on
    construction, so the Fractions here always have denominator 1.
    """
    expr = constraint.expr
    coeffs = tuple(int(expr.coefficient(var)) for var in variables)
    return coeffs, int(expr.const)


def constraint_of_row(row, variables, relation=GE):
    """Materialize one integer row back into a :class:`Constraint`.

    Kernel rows are gcd-normalized (and, for ``=``, sign-normalized)
    by construction, so the constructor's ``_canonical_scale`` pass
    would be a no-op — the trusted fast path skips it.
    """
    coeffs, const = row
    return Constraint._from_canonical(
        LinearExpr._from_canonical_integers(
            {var: c for var, c in zip(variables, coeffs) if c}, const
        ),
        relation,
    )


def normalize_row(coeffs, const):
    """Divide by the gcd of all entries (mirrors ``_canonical_scale``
    for ``>=`` rows); returns None for trivially-true rows."""
    divisor = abs(const)
    for c in coeffs:
        divisor = gcd(divisor, c)
    if divisor > 1:
        coeffs = tuple(c // divisor for c in coeffs)
        const = const // divisor
    if const >= 0 and not any(coeffs):
        return None  # trivial "c >= 0": the object path drops it on add
    return coeffs, const


class RowKernel:
    """A pure-inequality FM workspace over dense integer rows.

    ``histories`` (int bitmasks over original row indices) are carried
    only when *track* is set — the Chernikov-pruned projection of
    :func:`~repro.linalg.fourier_motzkin.eliminate_all_tracked`.
    """

    __slots__ = ("variables", "index", "reprs", "rows", "histories",
                 "pos", "neg")

    def __init__(self, variables, rows, histories=None):
        self.variables = tuple(variables)
        self.index = {var: i for i, var in enumerate(self.variables)}
        self.reprs = [repr(var) for var in self.variables]
        self.rows = rows
        self.histories = histories
        self.pos = [0] * len(self.variables)
        self.neg = [0] * len(self.variables)
        for coeffs, _ in rows:
            self._count(coeffs, 1)

    @classmethod
    def from_system(cls, system, track=False):
        """Intern *system* (equalities split into inequality pairs —
        exactly ``system.inequalities()`` — preserving row order)."""
        variables = intern_variables(system)
        rows = []
        histories = [] if track else None
        for position, constraint in enumerate(system.inequalities()):
            rows.append(row_of_constraint(constraint, variables))
            if track:
                histories.append(1 << position)
        return cls(variables, rows, histories)

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
        (min positives×negatives, ties by ``repr`` — the object
        path's greedy heuristic), or None when none is present."""
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

    def eliminate(self, j, chernikov_limit=None, prune=True):
        """Eliminate variable index *j* by pairwise combination.

        Mirrors the oracle's object-level combination + dominance
        pruning (or its tracked step when histories are tracked):
        positive rows pair with negative rows in row order, combined
        rows are gcd-normalized, trivial rows and duplicates are
        dropped, and with *prune* the tightest row per linear part
        survives (first-occurrence order).
        """
        track = self.histories is not None
        positives = []
        negatives = []
        kept = []
        kept_hist = [] if track else None
        seen = set()
        for position, row in enumerate(self.rows):
            coefficient = row[0][j]
            history = self.histories[position] if track else None
            if coefficient > 0:
                positives.append((row, history))
            elif coefficient < 0:
                negatives.append((row, history))
            elif track:
                # The tracked loop keeps duplicates (with their own
                # histories); the dominance filter collapses them.
                kept.append(row)
                kept_hist.append(history)
                seen.add(row)
            elif row in seen:
                # Untracked pass-through rows dedup on insertion, the
                # way ConstraintSystem.add does on the object path.
                self._count(row[0], -1)
            else:
                kept.append(row)
                seen.add(row)
        # Rows containing the variable leave the workspace.
        for row, _ in positives:
            self._count(row[0], -1)
        for row, _ in negatives:
            self._count(row[0], -1)
        width = range(len(self.variables))
        generated = 0
        chernikov_pruned = 0
        for (pcoeffs, pconst), phistory in positives:
            a = pcoeffs[j]
            for (ncoeffs, nconst), nhistory in negatives:
                if track:
                    history = phistory | nhistory
                    if history.bit_count() > chernikov_limit:
                        chernikov_pruned += 1
                        continue  # Chernikov: provably redundant
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
                if track:
                    kept_hist.append(history)

        if prune:
            before = len(kept)
            self._dominance(kept, kept_hist)
            dominance_pruned = before - len(self.rows)
        else:
            dominance_pruned = 0
            self.rows = kept
            self.histories = kept_hist
        if METRICS.enabled:
            METRICS.counter("fm.rows.generated").inc(generated)
            if chernikov_pruned:
                METRICS.counter("fm.rows.pruned.chernikov").inc(
                    chernikov_pruned
                )
            if dominance_pruned:
                METRICS.counter("fm.rows.pruned.dominance").inc(
                    dominance_pruned
                )

    def _dominance(self, rows, histories):
        """Keep the tightest row per linear part (first-occurrence
        order, smallest constant wins) and update the counters for
        every row dropped."""
        best = {}
        for position, (coeffs, const) in enumerate(rows):
            current = best.get(coeffs)
            if current is None:
                best[coeffs] = position
            elif const < rows[current][1]:
                self._count(coeffs, -1)
                best[coeffs] = position
            else:
                self._count(coeffs, -1)
        self.rows = [rows[p] for p in best.values()]
        if histories is not None:
            self.histories = [histories[p] for p in best.values()]
        else:
            self.histories = None

    # -- boundary --------------------------------------------------------------

    def to_system(self):
        """Materialize the surviving rows, in order, as canonical
        ``>=`` constraints."""
        return ConstraintSystem(
            constraint_of_row(row, self.variables) for row in self.rows
        )


def tracked_project(system, variables, max_rows=600):
    """Kernel implementation of the Chernikov-pruned projection.

    Byte-identical to the oracle's object-level tracked loop (before
    its final redundancy prune, which the caller applies at the
    object boundary).  Raises :class:`FMBlowupError` when the
    intermediate row count passes *max_rows*.
    """
    kernel = RowKernel.from_system(system, track=True)
    remaining = {
        kernel.index[var] for var in variables if var in kernel.index
    }
    eliminated = 0
    while remaining:
        j = kernel.choose(remaining)
        if j is None:
            break
        remaining.discard(j)
        eliminated += 1
        kernel.eliminate(j, chernikov_limit=eliminated + 1)
        if max_rows is not None and len(kernel) > max_rows:
            raise FMBlowupError(
                "tracked elimination exceeded %d rows" % max_rows
            )
    return kernel.to_system()


class StagedEliminator:
    """Kernel-native staged elimination for the ``fm`` backend.

    Eliminates every variable in ``repr`` order, keeping one row
    snapshot per stage so a witness can be recovered by reverse
    back-substitution.  Rows carry a relation flag (``=`` rows use
    integer Gaussian substitution, mirroring the object path's
    ``_eliminate_by_substitution``); a combination stage first splits
    the remaining equalities into inequality pairs, exactly as
    ``system.inequalities()`` does.
    """

    __slots__ = ("variables", "stages")

    def __init__(self, system):
        self.variables = intern_variables(system)
        rows = []
        for constraint in system:
            coeffs, const = row_of_constraint(constraint, self.variables)
            rows.append((constraint.is_equality(), coeffs, const))
        self.stages = [rows]

    def run(self, prune=True):
        """Eliminate every variable; returns the final row list."""
        for j in range(len(self.variables)):
            self.stages.append(self._stage(self.stages[-1], j, prune))
        return self.stages[-1]

    def _stage(self, rows, j, prune):
        for position, (is_eq, coeffs, _) in enumerate(rows):
            if is_eq and coeffs[j]:
                return self._substitute(rows, j, position)
        return self._combine(rows, j, prune)

    def _substitute(self, rows, j, eq_position):
        """Gaussian substitution in integers: with the equality row
        ``e`` solving for the variable, each row ``r`` with coefficient
        ``d`` becomes ``|c|*r - d*sign(c)*e`` — a positive multiple of
        the exact-fraction substitution, so gcd normalization reaches
        the same canonical form."""
        _, ecoeffs, econst = rows[eq_position]
        c = ecoeffs[j]
        m = abs(c)
        s = 1 if c > 0 else -1
        width = range(len(self.variables))
        result = []
        seen = set()
        for position, (is_eq, coeffs, const) in enumerate(rows):
            if position == eq_position:
                continue
            d = coeffs[j]
            if d:
                ds = d * s
                row = self._canonical(
                    is_eq,
                    tuple(m * coeffs[i] - ds * ecoeffs[i] for i in width),
                    m * const - ds * econst,
                )
                if row is None:
                    continue
                is_eq, coeffs, const = row
            key = (is_eq, coeffs, const)
            if key in seen:
                continue
            seen.add(key)
            result.append(key)
        return result

    def _combine(self, rows, j, prune):
        """Pairwise combination over the inequality splits of *rows*."""
        split = []
        for is_eq, coeffs, const in rows:
            if is_eq:
                split.append((coeffs, const))
                split.append((tuple(-c for c in coeffs), -const))
            else:
                split.append((coeffs, const))
        positives = []
        negatives = []
        kept = []
        seen = set()
        for coeffs, const in split:
            c = coeffs[j]
            if c > 0:
                positives.append((coeffs, const))
            elif c < 0:
                negatives.append((coeffs, const))
            elif (coeffs, const) not in seen:
                seen.add((coeffs, const))
                kept.append((coeffs, const))
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
        dominance_pruned = 0
        if prune:
            best = {}
            for position, (coeffs, const) in enumerate(kept):
                current = best.get(coeffs)
                if current is None or const < kept[current][1]:
                    best[coeffs] = position
            dominance_pruned = len(kept) - len(best)
            kept = [kept[p] for p in best.values()]
        if METRICS.enabled:
            METRICS.counter("fm.rows.generated").inc(generated)
            if dominance_pruned:
                METRICS.counter("fm.rows.pruned.dominance").inc(
                    dominance_pruned
                )
        return [(False, coeffs, const) for coeffs, const in kept]

    def _canonical(self, is_eq, coeffs, const):
        """GCD-normalize; sign-normalize ``=`` rows by their first
        nonzero coefficient (index order = ``repr`` order, matching
        ``_canonical_scale``); drop trivial rows."""
        divisor = abs(const)
        for c in coeffs:
            divisor = gcd(divisor, c)
        if divisor > 1:
            coeffs = tuple(c // divisor for c in coeffs)
            const = const // divisor
        leading = next((c for c in coeffs if c), None)
        if is_eq:
            if leading is None:
                if const == 0:
                    return None  # trivial "0 = 0"
                if const < 0:
                    const = -const  # sign-normalized contradiction row
            elif leading < 0:
                coeffs = tuple(-c for c in coeffs)
                const = -const
        elif leading is None and const >= 0:
            return None  # trivial "c >= 0"
        return is_eq, coeffs, const

    # -- verdict and witness ---------------------------------------------------

    def has_contradiction(self):
        """A constant-false row in the fully eliminated system?"""
        for is_eq, coeffs, const in self.stages[-1]:
            if any(coeffs):
                continue
            if is_eq:
                if const != 0:
                    return True
            elif const < 0:
                return True
        return False

    def witness(self):
        """A satisfying assignment, recovered in reverse elimination
        order — each variable within the interval its stage allows."""
        point = [None] * len(self.variables)
        for j in range(len(self.variables) - 1, -1, -1):
            point[j] = self._pick_value(self.stages[j], j, point)
        return {
            var: value for var, value in zip(self.variables, point)
        }

    def _pick_value(self, rows, j, point):
        lower = None
        upper = None
        for is_eq, coeffs, const in rows:
            c = coeffs[j]
            if c == 0:
                continue
            rest = Fraction(const)
            for i, coefficient in enumerate(coeffs):
                if coefficient and i != j:
                    rest += coefficient * point[i]
            bound = -rest / c
            if is_eq:
                return bound
            if c > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None:
            return (lower + upper) / 2
        if lower is not None:
            return lower
        if upper is not None:
            return upper
        return Fraction(0)
