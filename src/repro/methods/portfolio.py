"""Per-SCC portfolio driver: cheapest prover first, first conclusive
answer wins, provenance recorded per SCC.

Stage order (fixed):

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

from repro.core.pipeline import (
    DISPROVED,
    PROVED,
    UNKNOWN,
    AnalysisResult,
    AnalysisTrace,
    AnalyzerSettings,
)
from repro.methods.argsize import ArgSizeMethod
from repro.methods.base import TerminationMethod, observed_analyze
from repro.methods.nonterm import NonTerminationMethod
from repro.methods.sizechange import SizeChangeMethod


class PortfolioMethod(TerminationMethod):
    """Race argsize, sizechange, and nonterm; record who decided."""

    name = "portfolio"

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None):
        settings = settings or AnalyzerSettings()
        root = tuple(root)
        mode = str(mode)
        sub_results = []

        def attempt(method, cache=None):
            result = observed_analyze(
                method, program, root, mode, settings=settings,
                certificate_cache=cache, request_id=request_id,
            )
            sub_results.append(result)
            return result

        argsize = attempt(ArgSizeMethod(), certificate_cache)
        merged = list(argsize.scc_results)
        for scc in merged:
            scc.method = scc.method or "argsize"
        status = argsize.status

        if status != PROVED:
            sizechange = attempt(SizeChangeMethod())
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
            nonterm = attempt(NonTerminationMethod())
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
