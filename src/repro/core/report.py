"""Human-readable analysis reports.

Renders an :class:`~repro.core.analyzer.AnalysisResult` — verdict,
per-SCC measures and thetas, the inter-argument constraints used, the
Eq. 1 systems, and (with ``show_stats``) the pipeline stage trace —
in a format suitable for terminal output or inclusion in
EXPERIMENTS.md.
"""

from __future__ import annotations


def render_stage_table(trace):
    """The per-stage instrumentation table for one or more analyses.

    *trace* is an :class:`~repro.core.pipeline.AnalysisTrace`; columns
    are wall time, constraint rows in/out, memoization hits/misses,
    and simplex pivots in the final solve.
    """
    return "Pipeline stage trace:\n" + trace.describe()


def render_report(result, show_rule_systems=False, show_environment=False,
                  show_stats=False):
    """Full textual report for an analysis result."""
    lines = []
    lines.append("=" * 64)
    lines.append(
        "Termination analysis: %s/%d mode %s"
        % (result.root[0], result.root[1], result.root_mode)
    )
    lines.append("Verdict: %s" % result.status)
    method = getattr(result, "method", "argsize") or "argsize"
    if method != "argsize":
        lines.append("Method: %s" % method)
    lines.append("=" * 64)

    if result.nodes:
        lines.append("Adorned predicates reached:")
        for node in sorted(result.nodes, key=str):
            lines.append("  %s" % node)

    for scc in result.scc_results:
        lines.append("-" * 64)
        if scc.proved and scc.proof is not None:
            lines.append(scc.proof.describe())
            if show_rule_systems and scc.proof.rule_systems:
                for system in scc.proof.rule_systems:
                    lines.append("")
                    lines.extend(
                        "  " + line for line in system.describe().splitlines()
                    )
        else:
            provenance = getattr(scc, "method", "")
            lines.append(
                "SCC {%s}: %s%s"
                % (", ".join(str(m) for m in scc.members), scc.status,
                   " [%s]" % provenance if provenance else "")
            )
            if scc.reason:
                lines.append("  reason: %s" % scc.reason)

    if show_environment and result.environment is not None:
        lines.append("-" * 64)
        lines.append("Inter-argument constraints used:")
        text = str(result.environment)
        lines.extend("  " + line for line in text.splitlines())

    if show_stats and result.trace is not None:
        lines.append("-" * 64)
        lines.extend(render_stage_table(result.trace).splitlines())

    lines.append("=" * 64)
    return "\n".join(lines)


def render_verdict_table(rows, headers=("program", "mode", "verdict")):
    """A plain-text table; *rows* is a list of tuples.

    Rows shorter than *headers* are right-padded with empty cells, so
    two-valued callers keep working when a sweep appends a ``method``
    provenance column only some rows carry.
    """
    rows = [
        tuple(str(cell) for cell in row)
        + ("",) * (len(headers) - len(row))
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        """Pad one row to the column widths."""
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
