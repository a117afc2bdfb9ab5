"""Feasibility of the final λ system via the exact two-phase simplex.

The analyzer's last question — "is the lambda constraint system
feasible, and if so at which point?" — is the one place the pipeline
touches a numeric solver.  :class:`SimplexBackend` answers it with a
:class:`SolveOutcome` carrying the verdict, a witness assignment, and
per-solve statistics that the staged pipeline folds into its stage
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.linalg.constraints import ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import OPTIMAL, solve_lp
from repro.obs import span


@dataclass
class SolveStats:
    """Cost telemetry for one feasibility solve: constraint rows given
    to the simplex, tableau pivots across both phases, and wall time in
    seconds."""

    rows_in: int = 0
    pivots: int = 0
    wall_time: float = 0.0


@dataclass
class SolveOutcome:
    """Verdict, witness, and statistics of one solve.

    ``witness`` is a ``{variable: Fraction}`` assignment satisfying the
    system when ``feasible`` is True, else None.
    """

    feasible: bool
    witness: dict = None
    stats: SolveStats = field(default_factory=SolveStats)


class SimplexBackend:
    """Phase-1 feasibility with a zero objective.

    The witness is the basic feasible solution phase 1 lands on.
    """

    def feasible_point(self, system):
        """Decide feasibility of *system*; return a :class:`SolveOutcome`."""
        if not isinstance(system, ConstraintSystem):
            system = ConstraintSystem(system)
        with span("solve.simplex") as node:
            started = perf_counter()
            result = solve_lp(LinearExpr.constant(0), system)
            stats = SolveStats(
                rows_in=len(system),
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

    def feasible_points(self, systems):
        """Decide feasibility of every system; one outcome each, in
        order — a plain loop over :meth:`feasible_point`."""
        return [self.feasible_point(system) for system in systems]
