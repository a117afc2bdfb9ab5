"""Feasibility via the exact two-phase simplex (the default backend)."""

from __future__ import annotations

from time import perf_counter

from repro.linalg.constraints import ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import OPTIMAL, solve_lp
from repro.obs import span
from repro.solve.backend import (
    LPBackend,
    SolveOutcome,
    SolveStats,
    register_backend,
)


@register_backend
class SimplexBackend(LPBackend):
    """Phase-1 feasibility with a zero objective.

    The witness is the basic feasible solution phase 1 lands on;
    ``stats.pivots`` counts tableau pivots across both phases.
    """

    name = "simplex"

    def feasible_point(self, system):
        """Decide feasibility of *system*; return a :class:`SolveOutcome`."""
        if not isinstance(system, ConstraintSystem):
            system = ConstraintSystem(system)
        with span("solve.simplex") as node:
            started = perf_counter()
            result = solve_lp(LinearExpr.constant(0), system)
            stats = SolveStats(
                backend=self.name,
                rows_in=len(system),
                rows_out=len(system),
                variables=len(system.variables()),
                pivots=result.pivots,
                wall_time=perf_counter() - started,
            )
            node.inc("rows_in", stats.rows_in)
            node.inc("pivots", stats.pivots)
            node.set(feasible=result.status == OPTIMAL)
            if result.status != OPTIMAL:
                return SolveOutcome(feasible=False, stats=stats)
            return SolveOutcome(
                feasible=True, witness=result.assignment, stats=stats
            )
