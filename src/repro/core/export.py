"""Machine-readable certificate export.

Serializes analysis results and termination certificates to plain
dicts / JSON so downstream tools (query planners, CI gates, proof
archives) can consume verdicts without importing this library.
Fractions are rendered as strings (``"1/2"``) to stay exact.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _fraction(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def node_to_dict(node):
    """Serialize an adorned predicate."""
    return {
        "predicate": node.name,
        "arity": node.arity,
        "adornment": str(node.adornment),
    }


def scc_proof_to_dict(proof):
    """Serialize one SCC certificate."""
    data = {
        "members": [node_to_dict(node) for node in proof.members],
        "norm": proof.norm,
        "trivially_nonrecursive": proof.trivially_nonrecursive,
    }
    if proof.trivially_nonrecursive:
        return data
    data["lambdas"] = [
        {
            "node": node_to_dict(node),
            "weights": {
                str(position): _fraction(weight)
                for position, weight in sorted(weights.items())
            },
        }
        for node, weights in sorted(
            proof.lambdas.items(), key=lambda kv: str(kv[0])
        )
    ]
    data["thetas"] = [
        {
            "from": node_to_dict(i),
            "to": node_to_dict(j),
            "value": _fraction(value),
        }
        for (i, j), value in sorted(
            proof.thetas.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        )
    ]
    return data


def trace_to_dict(trace):
    """Serialize an :class:`~repro.core.pipeline.AnalysisTrace` as a
    list of per-stage counter dicts (stages that ran, pipeline order)."""
    return [
        {
            "stage": s.stage,
            "calls": s.calls,
            "wall_time_ms": round(s.wall_time * 1000, 3),
            "rows_in": s.rows_in,
            "rows_out": s.rows_out,
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
            "pivots": s.pivots,
        }
        for s in trace.stages()
    ]


def result_to_dict(result):
    """Serialize an :class:`~repro.core.analyzer.AnalysisResult`."""
    data = {
        "root": {"predicate": result.root[0], "arity": result.root[1]},
        "mode": result.root_mode,
        "status": result.status,
        "norm": result.norm,
        "method": getattr(result, "method", "argsize") or "argsize",
        "sccs": [],
    }
    if result.trace is not None:
        data["trace"] = trace_to_dict(result.trace)
    for scc in result.scc_results:
        if scc.proved and scc.proof is not None:
            entry = {"status": scc.status, "proof": scc_proof_to_dict(scc.proof)}
        else:
            # UNKNOWN/DISPROVED SCCs, and PROVED ones without a lambda
            # certificate (size-change proofs carry a reason instead).
            entry = {
                "status": scc.status,
                "members": [node_to_dict(node) for node in scc.members],
                "reason": scc.reason,
            }
        method = getattr(scc, "method", "")
        if method:
            entry["method"] = method
        data["sccs"].append(entry)
    return data


def result_to_json(result, indent=2):
    """Serialize an AnalysisResult to a JSON string."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=False)
