"""Feasibility + witness via pure Fourier–Motzkin elimination.

The paper's "in practice, Fourier-Motzkin elimination is simple and
adequate" route, previously inlined in the analyzer: FM preserves
satisfiability at every step, so the system is feasible iff the fully
eliminated system has no contradiction row; a witness is recovered by
assigning the variables in reverse elimination order, each within the
interval its stage allows.

The elimination itself runs on the integer row kernel
(:class:`~repro.linalg.rows.StagedEliminator`) by default; the option
``kernel="reference"`` keeps the original object pipeline for
differential testing — both produce identical verdicts and witnesses
satisfying the same stage intervals.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from repro.linalg.constraints import ConstraintSystem
from repro.linalg.fourier_motzkin import KERNEL_REFERENCE, eliminate
from repro.linalg.linexpr import LinearExpr
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
    through here.  Option ``kernel`` (default ``"int"``) selects the
    integer row kernel or the ``"reference"`` object path.
    ``stats.eliminations`` counts eliminated variables,
    ``stats.rows_out`` the rows surviving full elimination."""

    name = "fm"

    def feasible_point(self, system):
        """Decide feasibility of *system*; return a :class:`SolveOutcome`."""
        if not isinstance(system, ConstraintSystem):
            system = ConstraintSystem(system)
        prune = self.options.get("prune", True)
        kernel = self.options.get("kernel", "int")
        if kernel == KERNEL_REFERENCE:
            return self._feasible_point_reference(system, prune)
        with span("solve.fm", kernel="int") as node:
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

    def _feasible_point_reference(self, system, prune):
        """The object-pipeline elimination (differential baseline)."""
        with span("solve.fm", kernel="reference") as node:
            node.inc("rows_in", len(system))
            return self._reference_solve(system, prune, node)

    def _reference_solve(self, system, prune, node):
        started = perf_counter()

        order = sorted(system.variables(), key=repr)
        stages = [system]
        for var in order:
            stages.append(
                eliminate(
                    stages[-1], var, prune=prune, kernel=KERNEL_REFERENCE
                )
            )
        stats = SolveStats(
            backend=self.name,
            rows_in=len(system),
            rows_out=len(stages[-1]),
            variables=len(order),
            eliminations=len(order),
        )
        node.inc("eliminations", stats.eliminations)
        node.inc("rows_out", stats.rows_out)
        if stages[-1].has_contradiction_row():
            stats.wall_time = perf_counter() - started
            node.set(feasible=False)
            return SolveOutcome(feasible=False, stats=stats)
        point = {}
        for var, stage in zip(reversed(order), reversed(stages[:-1])):
            point[var] = _pick_value(stage, var, point)
        stats.wall_time = perf_counter() - started
        node.set(feasible=True)
        return SolveOutcome(feasible=True, witness=point, stats=stats)


def _pick_value(system, var, partial):
    """Choose a value for *var* consistent with *system*, where
    *partial* already fixes every other variable of *system*."""
    lower = None
    upper = None
    for constraint in system:
        coeff = constraint.expr.coefficient(var)
        if coeff == 0:
            continue
        rest = constraint.expr - LinearExpr.of(var, coeff)
        rest_value = rest.evaluate(partial)
        bound = -rest_value / coeff
        if constraint.is_equality():
            return bound
        if coeff > 0:
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
