"""Per-SCC portfolio driver: cheapest prover first, first conclusive
answer wins, provenance recorded per SCC.

Stage order (by method ``cost``):

1. ``argsize`` — the paper's certifying analysis, run first and in
   full (it also benefits from the certificate cache; its sub-run uses
   ``method="argsize"`` settings, so cache entries are shared with
   standalone argsize runs).  PROVED ends the race.
2. ``sizechange`` — attempted when argsize leaves SCCs unproved; any
   SCC it rescues replaces the failing entry (provenance
   ``method="sizechange"``).  All SCCs proved ends the race PROVED.
3. ``nonterm`` — attempted last; a looping derivation upgrades the
   verdict to DISPROVED with the looping goal as the reason.

Budgets are the sub-methods' own operation caps (module constants:
sizechange's closure and LP-call caps, nonterm's composition cap);
every stage runs to its own cap, and none is preempted.  Wall-clock
limits stay one layer up (``repro-analyze --timeout``, the serve
deadline).

The merged result reports ``method="portfolio"`` with per-SCC
``SCCResult.method`` provenance naming the prover that decided each
SCC; sub-method attempts are instrumented through the standard
``method.<name>.*`` metrics.
"""

from __future__ import annotations

from repro.core.analyzer import AnalyzerSettings
from repro.core.pipeline import (
    DISPROVED,
    PROVED,
    UNKNOWN,
    AnalysisResult,
    AnalysisTrace,
)
from repro.methods.base import (
    TerminationMethod,
    get_method,
    observed_analyze,
    register_method,
)


@register_method
class PortfolioMethod(TerminationMethod):
    """Race argsize, sizechange, and nonterm; record who decided."""

    name = "portfolio"
    cost = 40

    def _members(self, state):
        if state is None:
            state = {}
        methods = state.get("portfolio.methods")
        if methods is None:
            methods = {
                name: get_method(name)
                for name in ("argsize", "sizechange", "nonterm")
            }
            state["portfolio.methods"] = methods
        return methods, state

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None, state=None):
        settings = settings or AnalyzerSettings()
        methods, state = self._members(state)
        root = tuple(root)
        mode = str(mode)
        sub_results = []

        def attempt(name):
            result = observed_analyze(
                methods[name], program, root, mode, settings=settings,
                certificate_cache=(
                    certificate_cache if name == "argsize" else None
                ),
                request_id=request_id, state=state,
            )
            sub_results.append(result)
            return result

        argsize = attempt("argsize")
        merged = list(argsize.scc_results)
        for scc in merged:
            scc.method = scc.method or "argsize"
        status = argsize.status

        if status != PROVED:
            sizechange = attempt("sizechange")
            rescued = {
                frozenset(r.members): r
                for r in sizechange.scc_results if r.proved
            }
            merged = [
                r if r.proved else rescued.get(frozenset(r.members), r)
                for r in merged
            ]
            if all(r.proved for r in merged):
                status = PROVED

        if status != PROVED:
            nonterm = attempt("nonterm")
            if nonterm.status == DISPROVED:
                status = DISPROVED
                disproved = [
                    r for r in nonterm.scc_results if r.status == DISPROVED
                ]
                merged = [r for r in merged if r.proved] + disproved

        if status not in (PROVED, DISPROVED):
            status = UNKNOWN

        trace = AnalysisTrace()
        attrs = dict(root="%s/%d" % root, mode=mode, method=self.name)
        if request_id is not None:
            attrs["request_id"] = str(request_id)
        with trace.span("analyze", **attrs) as span:
            span.set(
                status=status,
                attempted=",".join(r.method for r in sub_results),
            )
        for sub in sub_results:
            if sub.trace is not None:
                trace.merge(sub.trace)
        return AnalysisResult(
            program=program,
            root=root,
            root_mode=mode,
            status=status,
            scc_results=merged,
            nodes=argsize.nodes,
            environment=argsize.environment,
            norm=argsize.norm,
            trace=trace,
            method=self.name,
        )
