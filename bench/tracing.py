"""Outside-in per-layer tracing for the ``--trace 1`` runs.

:class:`LayerTracer` wraps public functions and methods of the
program from the outside: a module-level function is rebound in its
defining module *and* at every import site (each ``repro`` module
holding the same function object), a method is rebound on its class.
No file under ``src/`` knows the tracer exists, so the untraced runs
measure exactly the code users run.

Each wrapper counts calls and wall time, and keeps the time its
wrapped children took, which gives self time.  Wrappers that name a
*caller* push a label while they run; every ``solve_lp`` call is
charged to the innermost label, so ``linalg.simplex.solves.prune``
counts the LPs the redundancy prune makes however deep it sits.

The program's own counters (``repro.obs.METRICS``) are read as the
difference across the traced run.  The serve daemon re-merges each
in-process solve's metric delta into the same registry, so every delta
it passes back through ``METRICS.merge_snapshot`` is recorded and
subtracted: what remains is what the code counted once.
``serve.metrics.remerged_solves`` reports how many ``simplex.solves``
that re-merge added on top.

State is per thread (the daemon parses on its event loop and solves on
a worker thread) and folded when :meth:`LayerTracer.report` runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["CALLERS", "DRIVER_LAYER", "PER_LAYER", "LayerTracer"]

#: Labels ``linalg.simplex.solves.<caller>`` is broken down by.
CALLERS = (
    "prune", "is_empty", "entails", "theta", "final", "verify",
    "sizechange", "join_weak", "other",
)

_POLYHEDRON_OPS = (
    "project", "join_exact", "widen", "is_empty", "entails_constraint",
    "equivalent",
)
_METHODS = ("argsize", "sizechange", "nonterm")
_STAGES = (
    "adorn", "interarg", "rule_systems", "dualize", "theta", "solve",
    "certify", "fingerprint",
)


def _per_layer():
    rows = [
        ("lp.parse.calls", "count", "lower"),
        ("lp.parse.ms", "ms", "lower"),
        ("lp.engine.solve.ms", "ms", "lower"),
        ("lp.unify.calls", "count", "lower"),
        ("lp.unify.ms", "ms", "lower"),
    ]
    for method in _METHODS:
        rows += [
            ("methods.%s.attempted" % method, "count", "lower"),
            ("methods.%s.decided" % method, "count", "higher"),
            ("methods.%s.ms" % method, "ms", "lower"),
        ]
    rows += [
        ("methods.nonterm.is_instance_of.calls", "count", "lower"),
        ("methods.nonterm.is_instance_of.ms", "ms", "lower"),
        ("interarg.infer.calls", "count", "lower"),
        ("interarg.infer.ms", "ms", "lower"),
        ("interarg.env_cache.hit_ratio", "ratio", "higher"),
        ("interarg.scc_env_cache.hit_ratio", "ratio", "higher"),
    ]
    for op in _POLYHEDRON_OPS:
        rows += [
            ("linalg.polyhedron.%s.calls" % op, "count", "lower"),
            ("linalg.polyhedron.%s.ms" % op, "ms", "lower"),
        ]
    rows += [
        ("linalg.polyhedron.join_weak.calls", "count", "lower"),
        ("linalg.polyhedron.weakened.fired", "count", "lower"),
        ("linalg.fm.eliminate_all_tracked.calls", "count", "lower"),
        ("linalg.fm.eliminate_all_tracked.ms", "ms", "lower"),
        ("linalg.fm.eliminate_all_tracked.self_ms", "ms", "lower"),
        ("linalg.fm.prune.calls", "count", "lower"),
        ("linalg.fm.prune.ms", "ms", "lower"),
        ("linalg.fm.prune.rows_in", "count", "lower"),
        ("linalg.fm.prune.rows_kept", "count", "lower"),
        ("linalg.fm.prune.kept_ratio", "ratio", "lower"),
        ("linalg.fm.rows.generated", "count", "lower"),
        ("linalg.fm.rows.pruned.chernikov", "count", "higher"),
        ("linalg.fm.rows.pruned.dominance", "count", "higher"),
    ]
    rows += [("linalg.simplex.solves.%s" % c, "count", "lower")
             for c in CALLERS]
    rows += [("linalg.simplex.ms.%s" % c, "ms", "lower") for c in CALLERS]
    rows += [
        ("linalg.simplex.solves.total", "count", "lower"),
        ("linalg.simplex.pivots", "count", "lower"),
    ]
    rows += [("core.stage.%s.ms" % s, "ms", "lower") for s in _STAGES]
    rows += [
        ("core.dualize.cache.hit_ratio", "ratio", "higher"),
        ("core.scc.cache.reused", "count", "higher"),
        ("core.scc.cache.reproved", "count", "lower"),
        ("core.scc.cache.rejected", "count", "lower"),
        ("solve.feasible_point.calls", "count", "lower"),
        ("solve.feasible_point.ms", "ms", "lower"),
        ("graph.theta.closure.calls", "count", "lower"),
        ("graph.theta.closure.iterations", "count", "lower"),
        ("serve.store.get.calls", "count", "lower"),
        ("serve.store.get.ms", "ms", "lower"),
        ("serve.store.put.calls", "count", "lower"),
        ("serve.store.put.ms", "ms", "lower"),
        ("serve.store.hit_ratio", "ratio", "higher"),
        ("serve.request_key.ms", "ms", "lower"),
        ("serve.metrics.remerged_solves", "count", "lower"),
    ]
    return tuple(rows)


#: Per-layer metrics the tracer itself produces: (name, unit, better).
TRACER_LAYER = _per_layer()

#: Per-layer metrics the workload drivers add, each 0 where it does not
#: apply: the batch layer's own overhead, and the serve tiers measured
#: by the client and from the daemon's access log.
DRIVER_LAYER = (
    ("batch.overhead_ms", "ms", "lower"),
    ("serve.queue_ms.p50", "ms", "lower"),
    ("serve.solve_ms.p50", "ms", "lower"),
    ("serve.serialize_ms.p50", "ms", "lower"),
    ("serve.hit_ms_p50", "ms", "lower"),
    ("serve.cold_ms_geomean", "ms", "lower"),
    ("serve.edit_ms_geomean", "ms", "lower"),
    ("serve.latency_ms_p95", "ms", "lower"),
)

#: Every ``--trace 1`` metric, in report order; ``trace.wall_s`` is the
#: traced pass's wall time (divide by the untraced ``wall_s`` for the
#: tracing overhead).
PER_LAYER = TRACER_LAYER + DRIVER_LAYER + (("trace.wall_s", "s", "lower"),)


class _ThreadState:
    """One thread's accumulators and open-wrapper stacks."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self.frames = []          # child seconds of each open wrapper
        self.callers = ["other"]
        self.traces = []          # AnalysisTrace of every analysis


_MISSING = object()


class LayerTracer:
    """Installs the per-layer wrappers; :meth:`report` folds them."""

    def __init__(self):
        self._thread = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []
        self._merged = []
        self._before = None

    # -- thread state ----------------------------------------------------------

    def _local(self):
        state = getattr(self._thread, "state", None)
        if state is None:
            state = self._thread.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- rebinding -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _bind(self, owner, attr, wrapper):
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # A function: rebind it wherever a repro module imported it.
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _wrap(self, owner, attr, metric=None, caller=None, observe=None):
        original = getattr(owner, attr)
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = local()
            if caller is not None:
                state.callers.append(caller)
            state.frames.append(0.0)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                child = state.frames.pop()
                if state.frames:
                    state.frames[-1] += elapsed
                if caller is not None:
                    state.callers.pop()
                if metric is not None:
                    state.counts[metric + ".calls"] += 1
                    state.seconds[metric + ".ms"] += elapsed
                    state.seconds[metric + ".self_ms"] += elapsed - child
            if observe is not None:
                observe(state, args, result)
            return result

        self._bind(owner, attr, wrapper)

    def _wrap_solve_lp(self, simplex):
        original = simplex.solve_lp
        local = self._local

        @functools.wraps(original)
        def solve_lp(*args, **kwargs):
            state = local()
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                if state.frames:
                    state.frames[-1] += elapsed
                caller = state.callers[-1]
                state.counts["linalg.simplex.solves." + caller] += 1
                state.seconds["linalg.simplex.ms." + caller] += elapsed

        self._bind(simplex, "solve_lp", solve_lp)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Import every traced module, wrap its layer boundaries, and
        snapshot the program's counters."""
        # import_module, not ``import a.b as c``: a package attribute
        # can shadow its submodule (``repro.lp.unify`` is a function).
        (theta, verifier, inference, fm, simplex, parser, unify, nonterm,
         _) = (importlib.import_module("repro." + name) for name in (
             "core.theta", "core.verifier", "interarg.inference",
             "linalg.fourier_motzkin", "linalg.simplex", "lp.parser",
             "lp.unify", "methods.nonterm", "serve.app",
         ))
        from repro.core.pipeline import AnalysisPipeline
        from repro.linalg.polyhedron import Polyhedron
        from repro.lp.engine import SLDEngine
        from repro.methods import MethodRunner, SizeChangeMethod
        from repro.obs import METRICS
        from repro.serve.protocol import AnalyzeRequest
        from repro.serve.store import ResultStore
        from repro.solve.simplex_backend import SimplexBackend

        def fold_trace(state, args, result):
            state.traces.append(result.trace)

        def prune_rows(state, args, result):
            state.counts["linalg.fm.prune.rows_in"] += len(args[0])
            state.counts["linalg.fm.prune.rows_kept"] += len(result)

        def weakened(state, args, result):
            polyhedron, max_rows = args[0], args[1]
            if len(polyhedron.system) > max_rows:
                state.counts["linalg.polyhedron.weakened.fired"] += 1

        def store_hit(state, args, result):
            if result is not None:
                state.counts["serve.store.hits"] += 1

        self._wrap(parser, "parse_program", "lp.parse")
        self._wrap(SLDEngine, "solve", "lp.engine.solve")
        self._wrap(unify, "unify", "lp.unify")
        self._wrap(nonterm, "is_instance_of",
                   "methods.nonterm.is_instance_of")
        self._wrap(SizeChangeMethod, "_prove_scc", caller="sizechange")
        self._wrap(MethodRunner, "analyze", observe=fold_trace)
        self._wrap(inference, "infer_interargument_constraints",
                   "interarg.infer")
        for op in _POLYHEDRON_OPS:
            caller = {"is_empty": "is_empty",
                      "entails_constraint": "entails"}.get(op)
            self._wrap(Polyhedron, op, "linalg.polyhedron." + op,
                       caller=caller)
        self._wrap(Polyhedron, "join_weak", "linalg.polyhedron.join_weak",
                   caller="join_weak")
        self._wrap(Polyhedron, "weakened", observe=weakened)
        self._wrap(fm, "eliminate_all_tracked",
                   "linalg.fm.eliminate_all_tracked")
        self._wrap(fm, "_prune_with_lp", "linalg.fm.prune", caller="prune",
                   observe=prune_rows)
        self._wrap(theta, "choose_thetas", caller="theta")
        self._wrap(AnalysisPipeline, "_stage_solve", caller="final")
        self._wrap(AnalysisPipeline, "_solve_scc_batch", caller="final")
        self._wrap(SimplexBackend, "feasible_point", "solve.feasible_point")
        self._wrap(SimplexBackend, "feasible_points", "solve.feasible_point")
        self._wrap(verifier, "verify_proof", caller="verify")
        self._wrap(ResultStore, "get", "serve.store.get", observe=store_hit)
        self._wrap(ResultStore, "put", "serve.store.put")
        self._wrap(AnalyzeRequest, "key", "serve.request_key")
        self._wrap_solve_lp(simplex)
        merge = METRICS.merge_snapshot

        @functools.wraps(merge)
        def merge_snapshot(snapshot):
            self._merged.append(snapshot)
            return merge(snapshot)

        self._set(METRICS, "merge_snapshot", merge_snapshot)
        self._before = METRICS.snapshot()
        return self

    def uninstall(self):
        """Restore every rebound attribute (newest first)."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- report ----------------------------------------------------------------

    def report(self):
        """Every :data:`TRACER_LAYER` metric by name."""
        from repro.core.pipeline import AnalysisTrace
        from repro.obs import METRICS, diff_snapshots, merge_snapshots

        counts = defaultdict(int)
        seconds = defaultdict(float)
        stages = AnalysisTrace()
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counts.items():
                counts[name] += value
            for name, value in state.seconds.items():
                seconds[name] += value
            for trace in state.traces:
                stages.merge(trace)
        merged = merge_snapshots(*self._merged)
        net = diff_snapshots(
            diff_snapshots(METRICS.snapshot(), self._before), merged
        )
        program = net["counters"]
        histograms = net["histograms"]

        def ratio(hits, total):
            return hits / total if total else 0.0

        def hit_ratio(prefix, hit="hit", miss="miss"):
            hits = program.get("%s.%s" % (prefix, hit), 0)
            misses = program.get("%s.%s" % (prefix, miss), 0)
            return ratio(hits, hits + misses)

        out = {}
        for name, unit, _ in TRACER_LAYER:
            if unit == "ms":
                out[name] = seconds.get(name, 0.0) * 1000
            elif name in counts:
                out[name] = counts[name]
        for method in _METHODS:
            out["methods.%s.attempted" % method] = program.get(
                "method.%s.attempted" % method, 0)
            out["methods.%s.decided" % method] = program.get(
                "method.%s.decided" % method, 0)
            out["methods.%s.ms" % method] = histograms.get(
                "method.%s.ms" % method, {}).get("sum", 0.0)
        out["interarg.env_cache.hit_ratio"] = hit_ratio("env.cache")
        out["interarg.scc_env_cache.hit_ratio"] = hit_ratio("scc.cache.env")
        out["linalg.fm.prune.kept_ratio"] = ratio(
            counts["linalg.fm.prune.rows_kept"],
            counts["linalg.fm.prune.rows_in"],
        )
        out["linalg.fm.rows.generated"] = program.get("fm.rows.generated", 0)
        for kind in ("chernikov", "dominance"):
            out["linalg.fm.rows.pruned." + kind] = program.get(
                "fm.rows.pruned." + kind, 0)
        out["linalg.simplex.solves.total"] = program.get("simplex.solves", 0)
        out["linalg.simplex.pivots"] = program.get("simplex.pivots", 0)
        for stage in _STAGES:
            out["core.stage.%s.ms" % stage] = (
                stages.stage(stage).wall_time * 1000
            )
        out["core.dualize.cache.hit_ratio"] = hit_ratio("dualize.cache")
        out["core.scc.cache.reused"] = program.get("scc.cache.hit", 0)
        out["core.scc.cache.reproved"] = program.get("scc.cache.miss", 0)
        out["core.scc.cache.rejected"] = program.get("scc.cache.rejected", 0)
        out["graph.theta.closure.calls"] = program.get(
            "theta.closure.calls", 0)
        out["graph.theta.closure.iterations"] = program.get(
            "theta.closure.iterations", 0)
        out["serve.store.hit_ratio"] = ratio(
            counts["serve.store.hits"], counts["serve.store.get.calls"]
        )
        out["serve.metrics.remerged_solves"] = merged["counters"].get(
            "simplex.solves", 0)
        for name, _, _ in TRACER_LAYER:
            out.setdefault(name, 0)
        return out
