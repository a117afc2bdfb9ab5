"""Exact two-phase simplex over rationals, with dual values.

The paper's decision procedure rests on LP duality (Section 4).  The
analyzer constructs the dual *symbolically* and reduces it with
Fourier–Motzkin, but we also need a numeric LP solver for

- feasibility of the final lambda constraint systems (cross-check path),
- independent verification of termination certificates via the *primal*
  problem Eq. 4 ("minimize lambda^T x - lambda^T y subject to Eq. 1"),
- polyhedron emptiness / entailment in inter-argument inference,
- exact LP-based redundancy pruning (ablation).

The tableau reads each constraint's canonical integer row and pivots
fraction-free on Python integers (Bareiss) under Bland's rule, so the
solver is exact and cannot cycle; only the result — values, duals,
and assignments — comes back as :class:`fractions.Fraction`.

Conventions
-----------
Variables are free unless listed in ``nonnegative`` (pass the string
``"all"`` to make every variable nonnegative).  Constraints come from
:mod:`repro.linalg.constraints` (``expr >= 0`` / ``expr = 0`` form).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from repro.errors import InfeasibleError, UnboundedError
from repro.linalg.constraints import Constraint
from repro.linalg.linexpr import LinearExpr
from repro.obs import METRICS

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    """Outcome of an LP solve.

    ``assignment`` maps every original variable to its optimal value;
    ``duals`` maps constraint index (position in the input system) to
    the dual multiplier of that row, in the convention of the row as
    written (``expr >= 0`` / ``expr = 0``).  ``pivots`` counts the
    tableau pivots performed across both phases (solver-cost telemetry
    for the final solve's stage trace).

    A solve leaves ``assignment`` and ``duals`` to be read off its
    final tableau on first access: most callers (redundancy pruning,
    emptiness, entailment) read only ``status`` and ``value``.
    """

    __slots__ = ("status", "value", "pivots", "_assignment", "_duals",
                 "_tableau")

    def __init__(self, status, value=None, assignment=None, duals=None,
                 pivots=0):
        self.status = status
        self.value = value
        self.pivots = pivots
        self._assignment = assignment
        self._duals = duals
        self._tableau = None

    @property
    def assignment(self):
        """``{variable: optimal value}``, or None without an optimum."""
        if self._assignment is None and self._tableau is not None:
            self._assignment = self._tableau._extract_assignment()
        return self._assignment

    @property
    def duals(self):
        """``{row index: dual multiplier}``, or None without an
        optimum."""
        if self._duals is None and self._tableau is not None:
            self._duals = self._tableau._extract_duals()
        return self._duals

    @property
    def is_optimal(self):
        """True when the solve reached an optimum."""
        return self.status == OPTIMAL

    def __repr__(self):
        return "LPResult(status=%r, value=%r, pivots=%r)" % (
            self.status, self.value, self.pivots)


def solve_lp(objective, constraints, sense="min", nonnegative=(),
             start=None):
    """Optimize *objective* subject to *constraints*.

    Parameters
    ----------
    objective:
        A :class:`LinearExpr` (its constant shifts the optimum value),
        or a :class:`Constraint`, whose row ``expr`` is the objective.
    constraints:
        A :class:`ConstraintSystem` or iterable of :class:`Constraint`.
    sense:
        ``"min"`` or ``"max"``.
    nonnegative:
        Iterable of variable names constrained to be >= 0, or the
        string ``"all"``.
    start:
        Optional ``{var: value}`` point the caller knows satisfies every
        row (variables it omits are 0).  The tableau is then built in
        shifted integer coordinates ``z = D * (x - start)``, where every
        row constant is >= 0, so each inequality — tight at *start* or
        not — begins with its slack basic and phase 1 has nothing to do
        (equality rows still start on an artificial at 0).  Status,
        value, and duals are those of the unshifted LP; the assignment
        is mapped back to ``x``.  Variables must be free: pass bounds as
        rows.  Raises :class:`ValueError` if *start* violates a row.
    """
    rows = list(constraints)
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if start is not None and nonnegative:
        raise ValueError("start= needs free variables; pass bounds as rows")

    result = _Tableau(objective, rows, sense, nonnegative, start).solve()
    if METRICS.enabled:
        METRICS.counter("simplex.solves").inc()
        METRICS.counter("simplex.pivots").inc(result.pivots)
        METRICS.histogram("simplex.pivots.per_solve").observe(result.pivots)
    return result


def is_feasible(constraints, nonnegative=()):
    """True if the constraint system has a solution."""
    result = solve_lp(
        LinearExpr.constant(0), constraints, nonnegative=nonnegative
    )
    return result.status == OPTIMAL


def feasible_point(constraints, nonnegative=()):
    """A satisfying assignment, or None if infeasible."""
    result = solve_lp(
        LinearExpr.constant(0), constraints, nonnegative=nonnegative
    )
    return result.assignment if result.status == OPTIMAL else None


def minimum(objective, constraints, nonnegative=()):
    """Exact minimum of *objective*, raising on infeasible/unbounded."""
    result = solve_lp(objective, constraints, nonnegative=nonnegative)
    if result.status == INFEASIBLE:
        raise InfeasibleError("constraints are infeasible")
    if result.status == UNBOUNDED:
        raise UnboundedError("objective is unbounded below")
    return result.value


def entails(constraints, candidate, nonnegative=(), start=None):
    """Does *constraints* imply *candidate* (a Constraint)?

    ``expr >= 0`` is entailed iff the minimum of ``expr`` over the
    system is >= 0 (an infeasible system entails everything).  An
    equality is entailed iff both defining inequalities are.  *start*
    is passed to :func:`solve_lp`: a known point of *constraints* makes
    each LP phase-2 only without changing the answer.
    """
    if candidate.is_equality():
        lower, upper = candidate.as_inequalities()
        return entails(constraints, lower, nonnegative, start) and entails(
            constraints, upper, nonnegative, start
        )
    result = solve_lp(candidate, constraints, nonnegative=nonnegative,
                      start=start)
    if result.status == INFEASIBLE:
        return True
    if result.status == UNBOUNDED:
        return False
    return result.value >= 0


class _Tableau:
    """Fraction-free integer tableau; builds it and runs the two phases.

    Column layout: for each variable either one column (nonnegative)
    or a +/- pair (free); then one slack per inequality; then one
    artificial per row, so the artificial columns come last.

    The rows ``A`` (right-hand side last) keep the invariant
    ``A = p * T``, where ``T`` is the exact rational tableau and ``p``
    the previous pivot element (``p = 1`` initially; ``p`` is the
    determinant of the current basis, so it may be negative).  A pivot
    is the Bareiss rank-1 update::

        A[i] <- (a_rc * A[i] - a_ic * A[r]) // p     (i != r)

    with exact integer division; row ``r`` keeps its values and
    ``p <- a_rc``.  Bland's rule reads only signs and ratios of ``T``,
    which come from integer signs (times the sign of ``p``) and
    cross-multiplied ratio tests, so the pivot sequence is the one the
    rational tableau takes.

    With a *start* point ``x0`` the structural columns hold
    ``z = D * (x - x0)`` (``D`` the lcm of ``x0``'s denominators, so
    ``D * x0`` is integral): a row ``a.x + c`` becomes ``a.z + b`` with
    ``b = D * (a.x0 + c)``, the same coefficients and a constant that
    is >= 0 for an inequality and 0 for an equality.  Every inequality
    row is then sign-flipped to ``-a.z + s = b``, slack basic.
    """

    def __init__(self, objective, rows, sense, nonnegative, start=None):
        if isinstance(objective, Constraint):
            self._objective = (objective.terms, objective.const)
        else:
            self._objective = (objective.items(), objective.const)
        self._sense = sense
        variables = {var for var, _ in self._objective[0]}
        for row in rows:
            variables.update(var for var, _ in row.terms)
        self._variables = sorted(variables, key=repr)
        self._start = None
        if start is not None:
            shift = [start.get(var, 0) for var in self._variables]
            scale = lcm(*(value.denominator for value in shift))
            self._start = (start, scale)
            scaled_shift = {
                var: value.numerator * (scale // value.denominator)
                for var, value in zip(self._variables, shift)
            }
        if nonnegative == "all":
            nonnegative = self._variables
        nonnegative = set(nonnegative)

        self._var_columns = {}      # var -> (plus_index, minus_index|None)
        width = 0
        for var in self._variables:
            if var in nonnegative:
                self._var_columns[var] = (width, None)
                width += 1
            else:
                self._var_columns[var] = (width, width + 1)
                width += 2
        slack_of_row = {}
        for i, row in enumerate(rows):
            if not row.is_equality():
                slack_of_row[i] = width
                width += 1
        self._first_artificial = width
        self._num_columns = width + len(rows)

        # Constraint rows are gcd-normalized integer rows, so the
        # tableau starts integral with p = 1.
        self._A = []
        self._basis = []
        self._row_sign = []
        for i, row in enumerate(rows):
            # Row as written: linear . x  (relation)  -const
            coeffs = [0] * (self._num_columns + 1)
            for var, coeff in row.terms:
                plus, minus = self._var_columns[var]
                coeffs[plus] = coeff
                if minus is not None:
                    coeffs[minus] = -coeff
            const = row.const
            if start is not None:
                const = const * scale + sum(
                    coeff * scaled_shift[var] for var, coeff in row.terms
                )
                if const < 0 or (const and row.is_equality()):
                    raise ValueError("start violates row %d: %s" % (i, row))
            coeffs[-1] = -const
            if i in slack_of_row:
                # linear . x - s = -const  with s >= 0
                coeffs[slack_of_row[i]] = -1
            sign = 1
            if coeffs[-1] < 0 or (start is not None and i in slack_of_row):
                coeffs = [-c for c in coeffs]
                sign = -1
            coeffs[self._first_artificial + i] = 1
            self._A.append(coeffs)
            self._row_sign.append(sign)
            # When the (sign-normalized) slack enters with +1 it can
            # serve as the initial basic variable — the artificial then
            # starts nonbasic at 0 and phase 1 has nothing to do for
            # this row.  Its column is still built so dual extraction
            # can read B^-1 from it.
            if i in slack_of_row and coeffs[slack_of_row[i]] == 1:
                self._basis.append(slack_of_row[i])
            else:
                self._basis.append(self._first_artificial + i)
        self._p = 1
        self._pivots = 0

    # -- cost vectors -------------------------------------------------------------

    def _phase1_costs(self):
        return [0] * self._first_artificial + [1] * len(self._A)

    def _phase2_costs(self):
        """The phase-2 costs as ints, scaled by the lcm of the
        objective's denominators (1 for an integer objective), and the
        scale (positive scaling keeps every reduced-cost sign, hence
        the pivot sequence)."""
        terms = self._objective[0]
        scale = lcm(*(coeff.denominator for _, coeff in terms))
        factor = scale if self._sense == "min" else -scale
        costs = [0] * self._num_columns
        for var, coeff in terms:
            cost = factor * coeff.numerator // coeff.denominator
            plus, minus = self._var_columns[var]
            costs[plus] = cost
            if minus is not None:
                costs[minus] = -cost
        return costs, scale

    # -- simplex machinery --------------------------------------------------------

    def _cost_row(self, costs):
        """``p * (c - c_B T)`` over every column and the right-hand
        side: the reduced costs times ``p``, then minus ``p`` times the
        objective value."""
        row = [self._p * value for value in costs] + [0]
        for basic, values in zip(self._basis, self._A):
            cost = costs[basic]
            if cost:
                row = [x - cost * v for x, v in zip(row, values)]
        return row

    def _pivot(self, pivot_row, pivot_column, cost_row=None):
        """One Bareiss pivot, in place, over every other row (and
        *cost_row*):
        ``row <- (a_rc * row - row[c] * A[r]) // p``.

        The division is exact: every entry of the result is a minor of
        the original integer matrix.
        """
        A = self._A
        pivot_values = A[pivot_row]
        pivot_value = pivot_values[pivot_column]
        p = self._p
        rows = [row for r, row in enumerate(A) if r != pivot_row]
        if cost_row is not None:
            rows.append(cost_row)
        if pivot_value == p:
            # No rescaling: a row changes only where the pivot row is
            # nonzero, and only if it meets the pivot column.
            support = [(j, w) for j, w in enumerate(pivot_values) if w]
            for row in rows:
                factor = row[pivot_column]
                if factor:
                    for j, w in support:
                        row[j] -= factor * w // p
        else:
            for row in rows:
                factor = row[pivot_column]
                if factor:
                    row[:] = [
                        (v * pivot_value - factor * w) // p
                        for v, w in zip(row, pivot_values)
                    ]
                else:
                    row[:] = [v * pivot_value // p for v in row]
        self._p = pivot_value
        self._basis[pivot_row] = pivot_column
        self._pivots += 1

    def _run_simplex(self, costs, allow_artificial):
        """Bland's rule loop; returns 'optimal' or 'unbounded'."""
        A = self._A
        columns = (
            self._num_columns if allow_artificial else self._first_artificial
        )
        cost_row = self._cost_row(costs)
        while True:
            # rho[j] < 0 iff cost_row[j] and p have opposite signs, and
            # T[r][e] > 0 iff A[r][e] and p have the same sign.
            sign = 1 if self._p > 0 else -1
            entering = next(
                (j for j in range(columns) if cost_row[j] * sign < 0), None
            )
            if entering is None:
                return OPTIMAL
            leaving = None
            for r, row in enumerate(A):
                denominator = row[entering]
                if denominator * sign <= 0:
                    continue
                # The ratio is row[-1] / denominator; all eligible
                # denominators share p's sign, so cross-multiplying
                # preserves the order.  Ties go to the smaller basic
                # column.
                numerator = row[-1]
                if leaving is not None:
                    left = numerator * best_d
                    right = best_n * denominator
                    if left > right or (
                        left == right
                        and self._basis[r] > self._basis[leaving]
                    ):
                        continue
                best_n, best_d, leaving = numerator, denominator, r
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, entering, cost_row)

    def _drive_out_artificials(self):
        """After phase 1, pivot artificials out of the basis when
        possible; rows where it is impossible are redundant (all-zero)."""
        first = self._first_artificial
        for r in range(len(self._A)):
            if self._basis[r] < first:
                continue
            row = self._A[r]
            for j in range(first):
                if row[j]:
                    self._pivot(r, j)
                    break

    # -- solve --------------------------------------------------------------------

    def solve(self):
        """Run phase 1 and phase 2; return an LPResult."""
        status = self._run_simplex(self._phase1_costs(), allow_artificial=True)
        # Phase-1 pivot entries share p's sign, so p > 0 here and the
        # artificials' total value has the sign of their A[:, rhs] sum.
        infeasibility = sum(
            row[-1] for basic, row in zip(self._basis, self._A)
            if basic >= self._first_artificial
        )
        if status != OPTIMAL or infeasibility > 0:
            return LPResult(status=INFEASIBLE, pivots=self._pivots)
        self._drive_out_artificials()

        self._phase2 = self._phase2_costs()
        status = self._run_simplex(self._phase2[0], allow_artificial=False)
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=self._pivots)

        terms, const = self._objective
        values = self._values([var for var, _ in terms])
        value = Fraction(const)
        for (_, coeff), x in zip(terms, values):
            value += coeff * x
        result = LPResult(status=OPTIMAL, value=value, pivots=self._pivots)
        result._tableau = self
        return result

    def _values(self, variables):
        """The optimal value of each of *variables*, as Fractions (a
        nonbasic column is 0), mapped back from the shifted
        coordinates of a *start* point."""
        row_of = {column: r for r, column in enumerate(self._basis)}

        def column_value(column):
            r = row_of.get(column)
            if r is None:
                return Fraction(0)
            return Fraction(self._A[r][-1], self._p)

        values = []
        for var in variables:
            plus, minus = self._var_columns[var]
            value = column_value(plus)
            if minus is not None:
                value -= column_value(minus)
            values.append(value)
        if self._start is not None:
            shift, scale = self._start
            values = [shift.get(var, 0) + value / scale
                      for var, value in zip(variables, values)]
        return values

    def _extract_assignment(self):
        return dict(zip(self._variables, self._values(self._variables)))

    def _extract_duals(self):
        """y_i = c_B . (B^-1 e_i), read from the artificial columns.

        The phase-2 costs are scaled by a positive factor (see
        :meth:`_phase2_costs`), divided out here.  Adjusted for row
        sign normalization and for sense=max (where the tableau
        optimizes the negated objective).
        """
        costs, scale = self._phase2
        duals = {}
        factor = 1 if self._sense == "min" else -1
        basic_costs = [
            (costs[basic], row) for basic, row in zip(self._basis, self._A)
            if costs[basic]
        ]
        denominator = self._p * scale
        for i in range(len(self._A)):
            column = self._first_artificial + i
            y = sum(cost * row[column] for cost, row in basic_costs)
            duals[i] = Fraction(factor * self._row_sign[i] * y, denominator)
        return duals
