"""Size-change termination prover (local level mappings).

Where the argument-size method demands one *global* linear ranking
function per SCC, size-change termination (Lee–Jones–Ben-Amram; the
Dershowitz et al. local-level-mapping view) only needs *some* bound
argument to descend along every infinite call sequence — which covers
lexicographic and multiset descents a single linear combination
misses (``ackermann`` is the canonical example).

Per recursive SCC of the adorned call graph, every rule × recursive
subgoal combination (the same Eq. 1 data the pipeline assembles via
:func:`~repro.core.rule_system.scc_rule_systems`) yields one
*size-change graph*: a bipartite graph over the bound argument
positions of the caller and callee with an arc ``i -> j`` when the
call provably never increases (weak) or always strictly decreases
(strict) position ``j`` relative to position ``i``.  Arcs are
justified two ways, both sound because argument sizes are nonnegative
integers:

1. **norm dominance** — the size-polynomial difference ``x_i - y_j``
   has all variable coefficients >= 0 (strict when its constant is
   >= 1, weak when >= 0);
2. **LP entailment** — the imported inter-argument constraints of the
   preceding subgoals (the [VG90] substrate, already computed) plus
   size nonnegativity make ``x_i - y_j <= 0`` (strict) or ``<= -1``
   (weak) infeasible, decided by the exact simplex.

The SCT criterion then closes the graph set under composition and
checks that every idempotent self-loop graph carries a strict arc
``i -> i``.  Budgets: the closure is capped at :data:`CLOSURE_LIMIT`
graphs and LP entailment at :data:`LP_CALLS` solves per SCC; exceeding
either degrades to UNKNOWN, never to an unsound verdict.

Guarantee: ``PROVED`` is sound (every mode-compliant derivation is
finite) but carries no lambda certificate — ``AnalysisResult.proof``
is None for SCCs proved here.  ``DISPROVED`` is never emitted: a
failing SCT check means only that *this* criterion cannot rank the
loops.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.adornment import adorned_call_graph
from repro.core.certificate import SCCProof
from repro.core.pipeline import (
    PROVED,
    UNKNOWN,
    AnalysisPipeline,
    AnalysisResult,
    AnalysisTrace,
    AnalyzerSettings,
    SCCResult,
)
from repro.core.rule_system import scc_rule_systems
from repro.graph.scc import (
    is_recursive_component,
    strongly_connected_components,
)
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.methods.base import TerminationMethod
from repro.solve import SimplexBackend

#: Per-SCC budgets (degrade to UNKNOWN, never block).
CLOSURE_LIMIT = 2048
LP_CALLS = 64


class SizeChangeMethod(TerminationMethod):
    """Size-change termination over bound argument positions."""

    name = "sizechange"

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None):
        settings = settings or AnalyzerSettings()
        base = replace(settings, method="argsize")
        # The pipeline supplies exactly the shared machinery needed —
        # the resolved norm and the (process-cached) inter-
        # argument environment; its SCC stages are never run here.
        pipeline = AnalysisPipeline(program, base, certificate_cache=None)
        root = tuple(root)
        mode = str(mode)
        trace = AnalysisTrace()
        attrs = dict(
            root="%s/%d" % root, mode=mode, norm=pipeline.norm.name,
            method=self.name,
        )
        if request_id is not None:
            attrs["request_id"] = str(request_id)
        with trace.span("analyze", **attrs):
            with trace.timed("adorn") as event:
                graph, nodes = adorned_call_graph(program, root, mode)
                components = list(strongly_connected_components(graph))
                event.rows_out = len(nodes)
            with trace.timed("interarg") as event:
                environment = pipeline.environment
                event.rows_out = sum(
                    len(poly.system) for _, poly in environment.items()
                )
            defined = program.defined_indicators()
            scc_results = []
            for component in components:
                members = tuple(
                    node for node in component if node.indicator in defined
                )
                if not members:
                    continue
                if not is_recursive_component(graph, component):
                    scc_results.append(SCCResult(
                        members=members,
                        status=PROVED,
                        proof=SCCProof(
                            members=members,
                            norm=pipeline.norm.name,
                            lambdas={},
                            thetas={},
                            trivially_nonrecursive=True,
                        ),
                        method=self.name,
                    ))
                    continue
                with trace.span(
                    "sizechange.scc",
                    members=", ".join(str(m) for m in members),
                ):
                    scc_results.append(self._prove_scc(
                        program, members, environment, pipeline
                    ))
            overall = PROVED
            for result in scc_results:
                if not result.proved:
                    overall = UNKNOWN
            return AnalysisResult(
                program=program,
                root=root,
                root_mode=mode,
                status=overall,
                scc_results=scc_results,
                nodes=tuple(nodes),
                environment=environment,
                norm=pipeline.norm.name,
                trace=trace,
                method=self.name,
            )

    # -- one SCC ---------------------------------------------------------------

    def _prove_scc(self, program, members, environment, pipeline):
        systems = scc_rule_systems(
            program, members, environment, pipeline.norm
        )
        if not systems:
            return SCCResult(
                members=members,
                status=UNKNOWN,
                reason="no rule/recursive-subgoal combinations found",
                method=self.name,
            )
        budget = [LP_CALLS]
        graphs = {
            self._graph_of(system, budget)
            for system in systems
        }
        verdict = self._sct_terminates(graphs)
        if verdict is None:
            return SCCResult(
                members=members,
                status=UNKNOWN,
                reason="size-change closure exceeded %d graphs"
                % CLOSURE_LIMIT,
                method=self.name,
            )
        if verdict:
            return SCCResult(
                members=members,
                status=PROVED,
                reason="size-change termination: every idempotent "
                "self-composition has a strict descent arc",
                method=self.name,
            )
        return SCCResult(
            members=members,
            status=UNKNOWN,
            reason="an idempotent size-change graph has no strict "
            "self-arc; no local level mapping exists over the bound "
            "argument sizes",
            method=self.name,
        )

    # -- size-change graphs ----------------------------------------------------

    def _graph_of(self, system, budget):
        """One size-change graph for an Eq. 1 rule system.

        Arcs map the caller's bound positions to the callee's;
        ``True`` marks strict descent.
        """
        arcs = {}
        imported = list(system.imported)
        for x_expr, i in zip(system.x_exprs, system.x_positions):
            for y_expr, j in zip(system.y_exprs, system.y_positions):
                strict = _dominates(x_expr, y_expr, strictly=True)
                weak = strict or _dominates(x_expr, y_expr, strictly=False)
                if not weak and imported and budget[0] > 0:
                    if self._entailed(x_expr, y_expr, imported, budget,
                                      strictly=True):
                        strict = weak = True
                    elif self._entailed(x_expr, y_expr, imported, budget,
                                        strictly=False):
                        weak = True
                if weak:
                    arcs[(i, j)] = arcs.get((i, j), False) or strict
        return (
            system.head_node,
            system.subgoal_node,
            frozenset((i, j, s) for (i, j), s in arcs.items()),
        )

    def _entailed(self, x_expr, y_expr, imported, budget, strictly):
        """Does ``imported /\\ sizes >= 0`` entail ``x > y`` (strict)
        or ``x >= y`` (weak)?  Decided by refuting the negation; sizes
        are integer-valued, so ``x - y > 0`` means ``x - y >= 1``."""
        budget[0] -= 1
        negation = ConstraintSystem(imported)
        variables = set(negation.variables())
        variables |= x_expr.variables() | y_expr.variables()
        for var in variables:
            negation.add(Constraint.ge(LinearExpr.of(var)))
        if strictly:
            negation.add(Constraint.ge(y_expr - x_expr))        # x <= y
        else:
            negation.add(Constraint.ge(y_expr - x_expr, 1))     # x <= y - 1
        return not SimplexBackend().feasible_point(negation).feasible

    # -- the SCT decision ------------------------------------------------------

    def _sct_terminates(self, graphs):
        """Close under composition; None on budget overflow, else the
        SCT verdict (every idempotent self-graph strictly descends)."""
        closure = set(graphs)
        work = list(closure)
        while work:
            current = work.pop()
            for other in list(closure):
                for composed in (
                    _compose(current, other), _compose(other, current)
                ):
                    if composed is not None and composed not in closure:
                        closure.add(composed)
                        work.append(composed)
            if len(closure) > CLOSURE_LIMIT:
                return None
        for graph in closure:
            src, dst, arcs = graph
            if src != dst:
                continue
            if _compose(graph, graph) != graph:
                continue  # only idempotent self-graphs matter (LJB theorem)
            if not any(i == j and strict for (i, j, strict) in arcs):
                return False
        return True


def _dominates(x_expr, y_expr, strictly):
    """Syntactic dominance of size polynomials: every variable
    coefficient of ``x - y`` nonnegative, constant >= 1 (strict) or
    >= 0 (weak).  Sound because sizes are nonnegative."""
    difference = x_expr - y_expr
    if any(coeff < 0 for _, coeff in difference.items()):
        return False
    return difference.const >= (1 if strictly else 0)


def _compose(first, second):
    """Standard size-change graph composition (strict wins per arc)."""
    src1, dst1, arcs1 = first
    src2, dst2, arcs2 = second
    if dst1 != src2:
        return None
    by_src = {}
    for (j, k, s2) in arcs2:
        by_src.setdefault(j, []).append((k, s2))
    arcs = {}
    for (i, j, s1) in arcs1:
        for (k, s2) in by_src.get(j, ()):
            strict = s1 or s2
            previous = arcs.get((i, k))
            if previous is None or (strict and not previous):
                arcs[(i, k)] = strict
    return (src1, dst2, frozenset((i, k, s) for (i, k), s in arcs.items()))
