"""The ``Fraction`` simplex tableau, kept as the differential oracle.

This is the solver :mod:`repro.linalg.simplex` ran before it pivoted
on integers: the same column layout, Bland's rule, and dual
extraction, over :class:`fractions.Fraction` entries.  The property
tests in ``test_simplex_props.py`` require the integer tableau to
agree with it exactly — status, value, assignment, duals, and pivot
count.

It also keeps the LP redundancy prune as it ran before each candidate
LP started from a known point (:func:`oracle_prune`): every candidate
solves from scratch, phase 1 included.
"""

from fractions import Fraction

from repro.linalg.constraints import ConstraintSystem
from repro.linalg.simplex import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, entails,
)


def oracle_solve(objective, constraints, sense="min", nonnegative=()):
    """:func:`repro.linalg.simplex.solve_lp` on the Fraction tableau."""
    return _StandardForm(objective, list(constraints), sense,
                         nonnegative).solve()


def oracle_prune(system):
    """:func:`repro.linalg.fourier_motzkin._prune_with_lp` without a
    start point, and without its ``-1 >= 0`` for an empty system: drop
    every inequality entailed by the rows still alive, in order."""
    rows = list(system)
    alive = [True] * len(rows)
    for position, candidate in enumerate(rows):
        if candidate.is_equality():
            continue
        alive[position] = False
        others = [
            row for index, row in enumerate(rows) if alive[index]
        ]
        if not entails(others, candidate):
            alive[position] = True
    return ConstraintSystem(
        row for index, row in enumerate(rows) if alive[index]
    )


class _StandardForm:
    """Builds the tableau and runs the two phases."""

    def __init__(self, objective, rows, sense, nonnegative):
        self._objective = objective
        self._rows = rows
        self._sense = sense
        self._variables = self._collect_variables()
        if nonnegative == "all":
            self._nonnegative = set(self._variables)
        else:
            self._nonnegative = set(nonnegative)

        # Column layout: for each variable either one column (nonneg)
        # or a +/- pair (free); then one slack per inequality; then one
        # artificial per row.
        self._columns = []          # (kind, payload) descriptors
        self._var_columns = {}      # var -> (plus_index, minus_index|None)
        for var in self._variables:
            if var in self._nonnegative:
                self._var_columns[var] = (len(self._columns), None)
                self._columns.append(("var+", var))
            else:
                plus = len(self._columns)
                self._columns.append(("var+", var))
                minus = len(self._columns)
                self._columns.append(("var-", var))
                self._var_columns[var] = (plus, minus)

        self._build_matrix()

    def _collect_variables(self):
        names = set(self._objective.variables())
        for row in self._rows:
            names |= row.variables()
        return sorted(names, key=repr)

    def _build_matrix(self):
        num_structural = len(self._columns)
        slack_of_row = {}
        for i, row in enumerate(self._rows):
            if not row.is_equality():
                slack_of_row[i] = num_structural
                self._columns.append(("slack", i))
                num_structural += 1
        self._artificial_of_row = {}
        for i in range(len(self._rows)):
            self._artificial_of_row[i] = num_structural
            self._columns.append(("artificial", i))
            num_structural += 1
        self._num_columns = num_structural

        matrix = []
        rhs = []
        basis = []
        self._row_sign = []
        for i, row in enumerate(self._rows):
            # Row as written: linear . x  (relation)  -const
            coeffs = [Fraction(0)] * self._num_columns
            for var, coeff in row.expr.items():
                plus, minus = self._var_columns[var]
                coeffs[plus] += coeff
                if minus is not None:
                    coeffs[minus] -= coeff
            right = -row.expr.const
            if i in slack_of_row:
                # linear . x - s = -const  with s >= 0
                coeffs[slack_of_row[i]] = Fraction(-1)
            sign = 1
            if right < 0:
                coeffs = [-c for c in coeffs]
                right = -right
                sign = -1
            coeffs[self._artificial_of_row[i]] = Fraction(1)
            matrix.append(coeffs)
            rhs.append(right)
            self._row_sign.append(sign)
            # When the (sign-normalized) slack enters with +1 it can
            # serve as the initial basic variable — the artificial then
            # starts nonbasic at 0 and phase 1 has nothing to do for
            # this row.  Its column is still built so dual extraction
            # can read B^-1 from it.
            if i in slack_of_row and coeffs[slack_of_row[i]] == 1:
                basis.append(slack_of_row[i])
            else:
                basis.append(self._artificial_of_row[i])
        self._matrix = matrix
        self._rhs = rhs
        self._basis = basis
        self._pivots = 0

    # -- cost vectors -------------------------------------------------------------

    def _phase1_costs(self):
        costs = [Fraction(0)] * self._num_columns
        for column in self._artificial_of_row.values():
            costs[column] = Fraction(1)
        return costs

    def _phase2_costs(self):
        costs = [Fraction(0)] * self._num_columns
        factor = Fraction(1) if self._sense == "min" else Fraction(-1)
        for var, coeff in self._objective.items():
            plus, minus = self._var_columns[var]
            costs[plus] += factor * coeff
            if minus is not None:
                costs[minus] -= factor * coeff
        return costs

    # -- simplex machinery -----------------------------------------------------------

    def _reduced_costs(self, costs):
        reduced = list(costs)
        for r, basic_column in enumerate(self._basis):
            basic_cost = costs[basic_column]
            if basic_cost == 0:
                continue
            for j, value in enumerate(self._matrix[r]):
                if value:
                    reduced[j] -= basic_cost * value
        return reduced

    def _objective_value(self, costs):
        return sum(
            costs[self._basis[r]] * self._rhs[r]
            for r in range(len(self._rhs))
        )

    def _pivot(self, pivot_row, pivot_column):
        matrix, rhs = self._matrix, self._rhs
        pivot_value = matrix[pivot_row][pivot_column]
        inverse = Fraction(1) / pivot_value
        matrix[pivot_row] = [c * inverse for c in matrix[pivot_row]]
        rhs[pivot_row] *= inverse
        pivot_row_values = matrix[pivot_row]
        # Only the pivot row's nonzero columns change in other rows —
        # exploiting that sparsity is the difference between usable and
        # unusable on the redundancy-pruning workload.
        touched = [
            j for j, value in enumerate(pivot_row_values) if value
        ]
        for r in range(len(matrix)):
            if r == pivot_row:
                continue
            factor = matrix[r][pivot_column]
            if factor == 0:
                continue
            row = matrix[r]
            for j in touched:
                row[j] -= factor * pivot_row_values[j]
            rhs[r] -= factor * rhs[pivot_row]
        self._basis[pivot_row] = pivot_column
        self._pivots += 1

    def _run_simplex(self, costs, allow_artificial):
        """Bland's rule loop; returns 'optimal' or 'unbounded'."""
        artificial_columns = set(self._artificial_of_row.values())
        while True:
            reduced = self._reduced_costs(costs)
            entering = None
            for j in range(self._num_columns):
                if not allow_artificial and j in artificial_columns:
                    continue
                if reduced[j] < 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL
            leaving = None
            best_ratio = None
            for r in range(len(self._matrix)):
                coefficient = self._matrix[r][entering]
                if coefficient > 0:
                    ratio = self._rhs[r] / coefficient
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (
                            ratio == best_ratio
                            and self._basis[r] < self._basis[leaving]
                        )
                    ):
                        best_ratio = ratio
                        leaving = r
            if leaving is None:
                return UNBOUNDED
            self._pivot(leaving, entering)

    def _drive_out_artificials(self):
        """After phase 1, pivot artificials out of the basis when
        possible; rows where it is impossible are redundant (all-zero)."""
        artificial_columns = set(self._artificial_of_row.values())
        for r in range(len(self._matrix)):
            if self._basis[r] not in artificial_columns:
                continue
            pivot_column = None
            for j in range(self._num_columns):
                if j in artificial_columns:
                    continue
                if self._matrix[r][j] != 0:
                    pivot_column = j
                    break
            if pivot_column is not None:
                self._pivot(r, pivot_column)

    # -- solve -------------------------------------------------------------------------

    def solve(self):
        """Run phase 1 and phase 2; return an LPResult."""
        phase1_costs = self._phase1_costs()
        status = self._run_simplex(phase1_costs, allow_artificial=True)
        if status != OPTIMAL or self._objective_value(phase1_costs) > 0:
            return LPResult(status=INFEASIBLE, pivots=self._pivots)
        self._drive_out_artificials()

        phase2_costs = self._phase2_costs()
        status = self._run_simplex(phase2_costs, allow_artificial=False)
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED, pivots=self._pivots)

        assignment = self._extract_assignment()
        value = self._objective.evaluate(assignment)
        duals = self._extract_duals(phase2_costs)
        return LPResult(
            status=OPTIMAL, value=value, assignment=assignment, duals=duals,
            pivots=self._pivots,
        )

    def _extract_assignment(self):
        column_values = [Fraction(0)] * self._num_columns
        for r, column in enumerate(self._basis):
            column_values[column] = self._rhs[r]
        assignment = {}
        for var in self._variables:
            plus, minus = self._var_columns[var]
            value = column_values[plus]
            if minus is not None:
                value -= column_values[minus]
            assignment[var] = value
        return assignment

    def _extract_duals(self, costs):
        """y_i = c_B . (B^-1 e_i), read from the artificial columns.

        Adjusted for row sign normalization and for sense=max (where the
        tableau optimizes the negated objective).
        """
        duals = {}
        factor = Fraction(1) if self._sense == "min" else Fraction(-1)
        for i, column in self._artificial_of_row.items():
            y = sum(
                costs[self._basis[r]] * self._matrix[r][column]
                for r in range(len(self._matrix))
            )
            duals[i] = factor * self._row_sign[i] * y
        return duals
