"""Feasibility + witness via pure Fourier–Motzkin elimination.

The paper's "in practice, Fourier-Motzkin elimination is simple and
adequate" route, previously inlined in the analyzer: FM preserves
satisfiability at every step, so the system is feasible iff the fully
eliminated system has no contradiction row; a witness is recovered by
assigning the variables in reverse elimination order, each within the
interval its stage allows.

The elimination itself runs on the integer row kernel
(:class:`~repro.linalg.rows.StagedEliminator`).
"""

from __future__ import annotations

from time import perf_counter

from repro.linalg.constraints import ConstraintSystem
from repro.linalg.rows import StagedEliminator
from repro.obs import span
from repro.solve.backend import (
    LPBackend,
    SolveOutcome,
    SolveStats,
    register_backend,
)


@register_backend
class FourierMotzkinBackend(LPBackend):
    """Option ``prune`` (default True) runs redundancy pruning at every
    elimination step — the analyzer wires ``AnalyzerSettings.prune_fm``
    through here.  ``stats.eliminations`` counts eliminated variables,
    ``stats.rows_out`` the rows surviving full elimination."""

    name = "fm"

    def feasible_point(self, system):
        """Decide feasibility of *system*; return a :class:`SolveOutcome`."""
        if not isinstance(system, ConstraintSystem):
            system = ConstraintSystem(system)
        prune = self.options.get("prune", True)
        with span("solve.fm") as node:
            node.inc("rows_in", len(system))
            started = perf_counter()

            eliminator = StagedEliminator(system)
            final = eliminator.run(prune=prune)
            stats = SolveStats(
                backend=self.name,
                rows_in=len(system),
                rows_out=len(final),
                variables=len(eliminator.variables),
                eliminations=len(eliminator.variables),
            )
            node.inc("eliminations", stats.eliminations)
            node.inc("rows_out", stats.rows_out)
            if eliminator.has_contradiction():
                stats.wall_time = perf_counter() - started
                node.set(feasible=False)
                return SolveOutcome(feasible=False, stats=stats)
            point = eliminator.witness()
            stats.wall_time = perf_counter() - started
            node.set(feasible=True)
            return SolveOutcome(feasible=True, witness=point, stats=stats)
