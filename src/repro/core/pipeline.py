"""The staged analysis pipeline with per-stage instrumentation.

The Sohn & Van Gelder analysis decomposes into named stages:

========================  ====================================================
``adorn``                 build the adorned dependency graph + its SCC DAG
``interarg``              infer (or recall) inter-argument constraints [VG90]
``rule_systems``          assemble Eq. 1 per rule × recursive subgoal
``dualize``               LP-dualize each pair to lambda/theta constraints
``theta``                 choose theta offsets / build Appendix C paths
``solve``                 final lambda feasibility via the exact simplex
``certify``               extract the lambda certificate per SCC
========================  ====================================================

:class:`AnalysisPipeline` composes them (program-level stages once per
run, SCC-level stages per recursive SCC), timing each into a
:class:`StageTrace` that :class:`AnalysisResult` carries as ``.trace``
— surfaced by ``render_report(..., show_stats=True)`` and
``repro-analyze --stats``.

The **environment cache** makes repeated analyses (``--all-modes``
sweeps, the corpus drivers) cheap: inferred :class:`SizeEnvironment`
objects are keyed by (alpha-invariant program fingerprint, norm,
inference settings), so analyzing a second mode of the same program
skips the polyhedral fixpoint entirely.  The cache is process-wide,
bounded, and sound: the cached value is a pure function of the key.
:func:`clear_caches` resets it (used by benchmarks measuring
cold/warm deltas).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from repro.errors import AnalysisError
from repro.obs import METRICS, Tracer, span
from repro.lp.program import Program
from repro.linalg.constraints import ConstraintSystem
from repro.graph.scc import is_recursive_component, strongly_connected_components
from repro.sizes.norms import get_norm
from repro.solve import SimplexBackend
from repro.interarg import (
    InferenceSettings,
    SizeEnvironment,
    infer_interargument_constraints,
)
from repro.core.adornment import adorned_call_graph
from repro.core.certificate import SCCProof, TerminationProof
from repro.core.fingerprint import program_fingerprint
from repro.core.dual import (
    lam_var,
    lambda_nonnegativity,
    pair_constraints,
    theta_var,
)
from repro.core.rule_system import scc_rule_systems
from repro.core.theta import (
    choose_thetas,
    path_constraints,
    substitute_thetas,
    zero_weight_cycle,
)

PROVED = "PROVED"
UNKNOWN = "UNKNOWN"
#: Termination *disproved*: a non-termination detector exhibited a
#: looping derivation.  Only :mod:`repro.methods` provers emit it —
#: the argument-size pipeline itself stays two-valued (its UNKNOWN
#: never means "diverges").
DISPROVED = "DISPROVED"

#: Stage names in execution order; ``adorn``/``interarg`` run once per
#: analysis, the rest once per recursive SCC.  ``fingerprint`` only
#: runs when a certificate cache is installed: it computes the SCC's
#: content address, consults the cache, and re-validates any reused
#: PROVED certificate.
STAGES = (
    "adorn",
    "interarg",
    "fingerprint",
    "rule_systems",
    "dualize",
    "theta",
    "solve",
    "certify",
)


# -- instrumentation ----------------------------------------------------------


@dataclass
class StageTrace:
    """Accumulated cost counters for one named stage.

    ``rows_in``/``rows_out`` are constraint-row counts entering and
    leaving the stage; ``cache_hits``/``cache_misses`` count memoized
    sub-results (dualizations, environments); ``pivots`` aggregates
    simplex work in the final solve.
    """

    stage: str
    calls: int = 0
    wall_time: float = 0.0
    rows_in: int = 0
    rows_out: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pivots: int = 0

    def merge(self, other):
        """Fold another record for the same stage into this one."""
        self.calls += other.calls
        self.wall_time += other.wall_time
        self.rows_in += other.rows_in
        self.rows_out += other.rows_out
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.pivots += other.pivots


#: StageTrace counter fields mirrored into stage-span counters.
_STAGE_COUNTERS = (
    "calls", "rows_in", "rows_out", "cache_hits", "cache_misses",
    "pivots",
)

#: Span-name prefix marking the spans stage totals are derived from.
_STAGE_SPAN_PREFIX = "stage."


class AnalysisTrace:
    """Per-stage instrumentation for one (or several merged) analyses.

    Since the observability rework this is a *view* over a span tree:
    :attr:`tracer` records hierarchical spans (``analyze`` roots,
    ``scc`` groups, ``stage.*`` leaves, plus whatever the solver and
    caches attach below them), and the per-stage
    :class:`StageTrace` totals the old API exposed — :meth:`stage`,
    :meth:`stages`, :attr:`total_time` — are derived on demand by
    folding the ``stage.*`` spans.  ``--trace-out`` serializes the
    same tree through :mod:`repro.obs.sinks`, so the ``--stats`` table
    and the JSONL trace can never disagree.
    """

    def __init__(self):
        self.tracer = Tracer()

    @property
    def roots(self):
        """The recorded root spans (one ``analyze`` span per run)."""
        return tuple(self.tracer.roots)

    @contextmanager
    def span(self, name, **attrs):
        """Open a span in this trace's tree (non-stage grouping —
        e.g. the per-SCC spans the pipeline wraps its stages in)."""
        with self.tracer.span(name, **attrs) as node:
            yield node

    @contextmanager
    def timed(self, stage):
        """Context manager timing one execution of *stage*; the yielded
        :class:`StageTrace` collects the stage's counters."""
        event = StageTrace(stage=stage, calls=1)
        with self.tracer.span(
            _STAGE_SPAN_PREFIX + stage, stage=stage
        ) as node:
            try:
                yield event
            finally:
                for name in _STAGE_COUNTERS:
                    value = getattr(event, name)
                    if value:
                        node.counters[name] = (
                            node.counters.get(name, 0) + value
                        )

    def add(self, event):
        """Record an already-measured :class:`StageTrace` event as a
        closed stage span (kept for callers that timed work
        themselves)."""
        node = None
        with self.tracer.span(
            _STAGE_SPAN_PREFIX + event.stage, stage=event.stage
        ) as node:
            pass
        node.started = 0.0
        node.wall_s = event.wall_time
        for name in _STAGE_COUNTERS:
            value = getattr(event, name)
            if value:
                node.counters[name] = value

    def stage(self, name):
        """The accumulated :class:`StageTrace` for *name*, derived
        from the span tree."""
        total = StageTrace(stage=name)
        wanted = _STAGE_SPAN_PREFIX + name
        for node in self.tracer.iter_spans():
            if node.name != wanted:
                continue
            total.calls += node.counters.get("calls", 1)
            total.wall_time += node.wall_s
            counters = node.counters
            total.rows_in += counters.get("rows_in", 0)
            total.rows_out += counters.get("rows_out", 0)
            total.cache_hits += counters.get("cache_hits", 0)
            total.cache_misses += counters.get("cache_misses", 0)
            total.pivots += counters.get("pivots", 0)
        return total

    def stages(self):
        """Stages that actually ran, in pipeline order."""
        derived = tuple(self.stage(name) for name in STAGES)
        return tuple(s for s in derived if s.calls)

    def merge(self, other):
        """Fold another trace into this one (e.g. across modes):
        the other trace's root spans are grafted into this forest, so
        derived stage totals accumulate exactly as the old flat
        counters did."""
        self.tracer.adopt(other.tracer.roots)
        return self

    @property
    def total_time(self):
        """Wall time summed over every stage, in seconds."""
        return sum(s.wall_time for s in self.stages())

    @property
    def cache_hits(self):
        """Cache hits summed over every stage."""
        return sum(s.cache_hits for s in self.stages())

    def describe(self):
        """Aligned per-stage table (the ``--stats`` rendering)."""
        headers = (
            "stage", "calls", "ms", "rows-in", "rows-out",
            "cache h/m", "pivots",
        )
        rows = []
        for s in self.stages():
            rows.append((
                s.stage,
                str(s.calls),
                "%.2f" % (s.wall_time * 1000),
                str(s.rows_in),
                str(s.rows_out),
                "%d/%d" % (s.cache_hits, s.cache_misses),
                str(s.pivots),
            ))
        rows.append((
            "total",
            str(sum(s.calls for s in self.stages())),
            "%.2f" % (self.total_time * 1000),
            str(sum(s.rows_in for s in self.stages())),
            str(sum(s.rows_out for s in self.stages())),
            "%d/%d" % (
                sum(s.cache_hits for s in self.stages()),
                sum(s.cache_misses for s in self.stages()),
            ),
            str(sum(s.pivots for s in self.stages())),
        ))
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt(row):
            return "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )

        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(row) for row in rows)
        effectiveness = self.describe_caches()
        if effectiveness:
            lines.append("")
            lines.extend(effectiveness.splitlines())
        return "\n".join(lines)

    def describe_caches(self):
        """Cache-effectiveness summary (environment + certificate),
        derived from the interarg/fingerprint stage counters; empty
        string when neither cache was consulted."""
        lines = []
        for label, stage_name in (
            ("environment cache", "interarg"),
            ("certificate cache", "fingerprint"),
        ):
            record = self.stage(stage_name)
            consulted = record.cache_hits + record.cache_misses
            if not consulted:
                continue
            lines.append(
                "  %-18s %d hits / %d misses  (%.0f%% hit rate)"
                % (
                    label,
                    record.cache_hits,
                    record.cache_misses,
                    100.0 * record.cache_hits / consulted,
                )
            )
        if not lines:
            return ""
        return "\n".join(["cache effectiveness:"] + lines)


# -- results ------------------------------------------------------------------


@dataclass
class SCCResult:
    """Outcome for one SCC: a proof, or a reason it was not found.

    ``cache`` records how the incremental certificate cache treated
    this SCC — ``""`` (no cache consulted / nonrecursive), ``"hit"``
    (certificate reused), ``"miss"`` (proved fresh, published), or
    ``"rejected"`` (a cached certificate failed re-verification and
    the SCC was re-proved); ``fingerprint`` is the SCC's content
    address when one was computed.  Neither field is exported — the
    verdict payload stays a pure function of the request.
    """

    members: tuple            # AdornedPredicate nodes
    status: str
    proof: object = None
    reason: str = ""
    constraint_rows: int = 0
    cache: str = ""
    fingerprint: str = ""
    #: Which :mod:`repro.methods` prover decided this SCC (portfolio
    #: provenance); ``""`` outside the methods layer.
    method: str = ""
    #: The :class:`~repro.core.certificate.LoopWitness` behind a
    #: DISPROVED verdict; like ``cache``, never exported.
    witness: object = None

    @property
    def proved(self):
        """True when the verdict is PROVED."""
        return self.status == PROVED


@dataclass
class AnalysisResult:
    """Whole-program outcome, plus the stage trace that produced it."""

    program: Program
    root: tuple
    root_mode: str
    status: str
    scc_results: list = field(default_factory=list)
    nodes: tuple = ()
    environment: SizeEnvironment = None
    norm: str = "structural"
    trace: AnalysisTrace = None
    #: The :mod:`repro.methods` prover that produced this result.  The
    #: pipeline itself *is* the argument-size method, hence the default.
    method: str = "argsize"

    @property
    def proved(self):
        """True when the verdict is PROVED."""
        return self.status == PROVED

    @property
    def proof(self):
        """A :class:`TerminationProof` when the status is PROVED."""
        if not self.proved:
            return None
        if any(r.proof is None for r in self.scc_results):
            # Proved by a method that argues termination without a
            # lambda certificate (e.g. size-change closure).
            return None
        certificate = TerminationProof(
            root=self.root, root_mode=self.root_mode, norm=self.norm
        )
        certificate.scc_proofs = [r.proof for r in self.scc_results]
        return certificate

    @property
    def sccs_reused(self):
        """Recursive SCCs answered from the certificate cache."""
        return sum(1 for r in self.scc_results if r.cache == "hit")

    @property
    def sccs_reproved(self):
        """Recursive SCCs proved fresh despite a cache being consulted
        (misses plus rejected certificates)."""
        return sum(
            1 for r in self.scc_results if r.cache in ("miss", "rejected")
        )

    @property
    def sccs_rejected(self):
        """Reused certificates that failed re-verification (a subset
        of :attr:`sccs_reproved`)."""
        return sum(1 for r in self.scc_results if r.cache == "rejected")

    def failing_sccs(self):
        """The SCC results that were not proved."""
        return [r for r in self.scc_results if not r.proved]

    def describe(self):
        """Human-readable rendering."""
        lines = [
            "%s: %s/%d with mode %s"
            % (self.status, self.root[0], self.root[1], self.root_mode)
        ]
        for result in self.scc_results:
            if result.proved and result.proof is not None:
                lines.append(result.proof.describe())
            else:
                lines.append(
                    "SCC {%s}: %s — %s"
                    % (
                        ", ".join(str(m) for m in result.members),
                        result.status,
                        result.reason,
                    )
                )
        return "\n".join(lines)


# -- memoization --------------------------------------------------------------

_ENV_CACHE = {}
_ENV_CACHE_LIMIT = 128


def clear_caches():
    """Drop the process-wide environment cache."""
    _ENV_CACHE.clear()


@dataclass
class AnalyzerSettings:
    """Analyzer configuration (every knob is ablatable).

    ``norm`` — term-size measure (``structural`` is the paper's).
    ``use_interarg`` — import inter-argument constraints ([VG90]); off
    reproduces the pre-[VG90] behaviour on Example 3.1.
    ``allow_negative_theta`` — Appendix C search instead of the 0/1
    assignment.
    ``method`` — name of the :mod:`repro.methods` termination prover
    drivers dispatch to (``argsize``, ``sizechange``, ``nonterm``, or
    ``portfolio``).  ``argsize`` is the paper's pipeline and the
    default; the setting participates in request/certificate cache
    keys.  Validated at construction like ``norm``.
    ``eliminate_w`` — True (default) runs the paper's practical route:
    Fourier–Motzkin eliminates the undistinguished dual multipliers per
    rule-subgoal pair ("in practice, Fourier-Motzkin elimination is
    simple and adequate").  False keeps them — the paper's theoretical
    variant: "to claim a theoretical polynomial time bound, we stop
    with Eq. 8 and give the undistinguished variables w unique names" —
    and one big LP decides feasibility.  Identical verdicts, different
    cost profile.
    """

    norm: str = "structural"
    use_interarg: bool = True
    allow_negative_theta: bool = False
    eliminate_w: bool = True
    method: str = "argsize"
    inference: InferenceSettings = field(default_factory=InferenceSettings)

    def validate(self):
        """Raise :class:`~repro.errors.AnalysisError` on an unknown norm
        or method; return the resolved norm."""
        return resolve_settings(self)


def resolve_settings(settings):
    """Validate analyzer settings eagerly; return the resolved norm.

    Unknown ``norm`` or ``method`` values raise one clear
    :class:`AnalysisError` at construction time instead of failing
    mid-SCC with subsystem-specific error shapes.
    """
    try:
        norm = get_norm(settings.norm)
    except ValueError as error:
        raise AnalysisError("invalid analyzer settings: %s" % error) from None
    # Lazy import: repro.methods imports repro.core, not vice versa.
    from repro.methods import get_method

    get_method(settings.method)
    return norm


# -- the pipeline -------------------------------------------------------------


@dataclass
class _SCCState:
    """Mutable scratch the SCC stages hand to one another."""

    members: tuple
    bound_positions: dict = None
    systems: list = None
    combined: ConstraintSystem = None
    lambda_system: ConstraintSystem = None
    edges: list = None
    thetas: dict = None
    paths: ConstraintSystem = None
    final: ConstraintSystem = None
    outcome: object = None


@dataclass
class _PreparedSCC:
    """One SCC run through its pre-solve stages (deferred solve).

    ``result`` is set when the SCC finished early — a certificate
    cache hit or a pre-solve verdict — otherwise ``state.final``
    holds the assembled lambda system awaiting the shared solve call.
    """

    state: _SCCState
    result: object = None
    fingerprint: str = ""
    order: object = None
    cache_state: str = ""
    assembly_time: float = 0.0


class AnalysisPipeline:
    """The analyzer: staged execution bound to one program + settings.

    Settings are validated (norm and method resolved) at construction,
    so misconfiguration fails here, not mid-SCC; *settings* defaults to
    :class:`AnalyzerSettings`.  Reusing one object across modes reuses
    its inferred inter-argument environment.  Exported as
    :class:`~repro.core.analyzer.TerminationAnalyzer` too.
    """

    PROGRAM_STAGES = ("adorn", "interarg")
    SCC_STAGES = ("rule_systems", "dualize", "theta", "solve", "certify")

    def __init__(self, program, settings=None, certificate_cache=None):
        if not isinstance(program, Program):
            raise AnalysisError("expected a Program")
        self.program = program
        self.settings = settings or AnalyzerSettings()
        self.norm = resolve_settings(self.settings)
        self.certificate_cache = certificate_cache
        self._environment = None
        self._environment_key = None

    def _certificate_settings_key(self):
        """Every knob the SCC stages read, as a hashable tuple — part
        of the certificate fingerprint so a cache shared across
        configurations can never alias their certificates."""
        s = self.settings
        return (
            self.norm.name,
            bool(s.allow_negative_theta),
            bool(s.eliminate_w),
            s.method,
        )

    # -- inter-argument constraints ------------------------------------------

    @property
    def environment(self):
        """Inter-argument constraints, inferred (or recalled) on first use."""
        env, _ = self._obtain_environment()
        return env

    def use_external_constraints(self, environment):
        """Install externally supplied inter-argument constraints
        (the paper's "supplied by other external means")."""
        self._environment = environment

    def _obtain_environment(self):
        """Return ``(environment, cache_hit)``, consulting the
        analyzer-local slot first and the process-wide cache second."""
        if self._environment is not None:
            return self._environment, True
        if not self.settings.use_interarg:
            self._environment = SizeEnvironment()
            return self._environment, False
        if self._environment_key is None:
            self._environment_key = (
                program_fingerprint(self.program),
                self.norm.name,
                self.settings.inference.key(),
            )
        cached = _ENV_CACHE.get(self._environment_key)
        if cached is not None:
            if METRICS.enabled:
                METRICS.counter("env.cache.hit").inc()
            self._environment = cached
            return cached, True
        if METRICS.enabled:
            METRICS.counter("env.cache.miss").inc()
        with span("interarg.infer", norm=self.norm.name):
            environment = infer_interargument_constraints(
                self.program,
                norm=self.norm,
                settings=self.settings.inference,
                cache=self.certificate_cache,
            )
        if len(_ENV_CACHE) >= _ENV_CACHE_LIMIT:
            _ENV_CACHE.pop(next(iter(_ENV_CACHE)))
        _ENV_CACHE[self._environment_key] = environment
        self._environment = environment
        return environment, False

    # -- program-level stages -------------------------------------------------

    def analyze(self, root_indicator, root_mode, request_id=None):
        """Full analysis of the *root_mode* query on the root.

        *request_id*, when given (the serve layer always passes one),
        is stamped onto the root ``analyze`` span — the join key
        between a trace, the daemon's access-log line, and the
        ``X-Repro-Request-Id`` a client saw.
        """
        root_indicator = tuple(root_indicator)
        trace = AnalysisTrace()
        attrs = dict(
            root="%s/%d" % root_indicator,
            mode=str(root_mode),
            norm=self.norm.name,
        )
        if request_id is not None:
            attrs["request_id"] = str(request_id)
        with trace.span("analyze", **attrs):
            return self._run_traced(root_indicator, root_mode, trace)

    def _run_traced(self, root_indicator, root_mode, trace):
        with trace.timed("adorn") as event:
            graph, nodes = adorned_call_graph(
                self.program, root_indicator, root_mode
            )
            components = list(strongly_connected_components(graph))
            event.rows_out = len(nodes)

        with trace.timed("interarg") as event:
            environment, hit = self._obtain_environment()
            if hit:
                event.cache_hits = 1
            else:
                event.cache_misses = 1
            event.rows_out = sum(
                len(poly.system) for _, poly in environment.items()
            )

        defined = self.program.defined_indicators()
        worklist = []
        for component in components:
            members = tuple(
                node for node in component if node.indicator in defined
            )
            if not members:
                continue  # EDB leaves: finite relations, nothing to prove
            worklist.append(
                (members, is_recursive_component(graph, component))
            )
        batched = sum(1 for _, recursive in worklist if recursive) >= 2
        scc_results = []
        pending = []  # (result slot index, _PreparedSCC) awaiting solve
        overall = PROVED
        for members, recursive in worklist:
            if not recursive:
                with trace.timed("certify"):
                    scc_results.append(
                        SCCResult(
                            members=members,
                            status=PROVED,
                            proof=SCCProof(
                                members=members,
                                norm=self.norm.name,
                                lambdas={},
                                thetas={},
                                trivially_nonrecursive=True,
                            ),
                        )
                    )
                continue
            if batched:
                prepared = self._prepare_scc(members, trace)
                if prepared.result is None:
                    pending.append((len(scc_results), prepared))
                scc_results.append(prepared.result)
                continue
            scc_results.append(self.analyze_scc(members, trace=trace))
        if pending:
            self._solve_scc_batch(pending, scc_results, trace)
        for result in scc_results:
            if not result.proved:
                overall = UNKNOWN
        return AnalysisResult(
            program=self.program,
            root=root_indicator,
            root_mode=str(root_mode),
            status=overall,
            scc_results=scc_results,
            nodes=tuple(nodes),
            environment=environment,
            norm=self.norm.name,
            trace=trace,
        )

    # -- SCC-level stages -----------------------------------------------------

    def analyze_scc(self, members, trace=None):
        """Run the SCC stages (Sections 3–6) for one recursive SCC.

        With a certificate cache installed, a ``fingerprint`` stage
        runs first: it computes the SCC's content address and tries to
        reuse a cached certificate — re-validated through
        :mod:`repro.core.verifier` when it claims PROVED.  A failed
        validation counts as ``scc.cache.rejected`` and falls through
        to a fresh solve; a fresh outcome is published back.
        """
        if trace is None:
            trace = AnalysisTrace()
        state = _SCCState(members=tuple(members))
        with trace.span(
            "scc", members=", ".join(str(m) for m in state.members)
        ) as scc_span:
            fingerprint = ""
            order = None
            cache_state = ""
            if self.certificate_cache is not None:
                with trace.timed("fingerprint") as event:
                    reused, fingerprint, order = self._reuse_certificate(
                        state.members, event
                    )
                if reused is not None:
                    scc_span.set(cache="hit")
                    return reused
                cache_state = (
                    "rejected" if event.cache_misses and event.cache_hits
                    else "miss"
                )
                scc_span.set(cache=cache_state)
            for name in self.SCC_STAGES:
                stage = getattr(self, "_stage_%s" % name)
                with trace.timed(name) as event:
                    result = stage(state, event)
                if result is not None:
                    return self._publish_certificate(
                        result, fingerprint, order, cache_state
                    )
        raise AnalysisError("certify stage returned no result")  # unreachable

    def _prepare_scc(self, members, trace):
        """Run one SCC's pre-solve stages (deferred-solve mode, taken
        when a query reaches two or more recursive SCCs).

        Mirrors :meth:`analyze_scc` up to the point the final lambda
        system exists, then defers the feasibility solve: the caller
        collects every prepared SCC and dispatches them through one
        :meth:`~repro.solve.SimplexBackend.feasible_points` call.  Early
        finishes (certificate reuse, a pre-solve verdict) come back
        with ``.result`` already set.
        """
        state = _SCCState(members=tuple(members))
        prepared = _PreparedSCC(state)
        with trace.span(
            "scc", members=", ".join(str(m) for m in state.members)
        ) as scc_span:
            if self.certificate_cache is not None:
                with trace.timed("fingerprint") as event:
                    reused, prepared.fingerprint, prepared.order = (
                        self._reuse_certificate(state.members, event)
                    )
                if reused is not None:
                    scc_span.set(cache="hit")
                    prepared.result = reused
                    return prepared
                prepared.cache_state = (
                    "rejected" if event.cache_misses and event.cache_hits
                    else "miss"
                )
                scc_span.set(cache=prepared.cache_state)
            for name in self.SCC_STAGES[:-2]:
                stage = getattr(self, "_stage_%s" % name)
                with trace.timed(name) as event:
                    result = stage(state, event)
                if result is not None:
                    prepared.result = self._publish_certificate(
                        result, prepared.fingerprint, prepared.order,
                        prepared.cache_state,
                    )
                    return prepared
            started = perf_counter()
            self._assemble_final(state)
            prepared.assembly_time = perf_counter() - started
        return prepared

    def _solve_scc_batch(self, pending, scc_results, trace):
        """Dispatch the deferred solves as one
        :meth:`~repro.solve.SimplexBackend.feasible_points` call.

        Fills each pending ``(slot, prepared)`` entry of *scc_results*
        in place.  Stage accounting matches the serial path: one
        ``solve`` record per SCC (an even share of the call's wall time
        plus that SCC's assembly time), then the ordinary ``certify``
        stage.
        """
        finals = [prepared.state.final for _, prepared in pending]
        with trace.span("solve.batch", sccs=len(finals)):
            started = perf_counter()
            outcomes = SimplexBackend().feasible_points(finals)
            share = (perf_counter() - started) / len(finals)
        for (slot, prepared), outcome in zip(pending, outcomes):
            state = prepared.state
            state.outcome = outcome
            event = StageTrace(
                stage="solve", calls=1,
                wall_time=share + prepared.assembly_time,
            )
            result = self._solve_verdict(state, event)
            trace.add(event)
            if result is None:
                with trace.timed("certify") as cevent:
                    result = self._stage_certify(state, cevent)
            scc_results[slot] = self._publish_certificate(
                result, prepared.fingerprint, prepared.order,
                prepared.cache_state,
            )

    def _reuse_certificate(self, members, event):
        """Try the certificate cache for one SCC.

        Returns ``(result_or_None, fingerprint, canonical_order)``,
        recording hit/miss/rejected on the stage *event* and the
        ``scc.cache.*`` metrics.  A cached PROVED claim is accepted
        only after :func:`~repro.core.verifier.verify_proof` re-checks
        it against rule systems built freshly from the *current*
        program, so a stale or colliding cache entry can cost time,
        never soundness.
        """
        from repro.core.fingerprint import scc_certificate_fingerprint
        from repro.core.certcache import decode_scc_certificate
        from repro.core.verifier import VerificationError, verify_proof

        environment, _ = self._obtain_environment()
        fingerprint, order = scc_certificate_fingerprint(
            self.program, members, environment,
            self._certificate_settings_key(),
        )
        payload = self.certificate_cache.get(fingerprint)
        decoded = (
            decode_scc_certificate(payload, order)
            if payload is not None else None
        )
        if decoded is None:
            event.cache_misses += 1
            if METRICS.enabled:
                METRICS.counter("scc.cache.miss").inc()
            return None, fingerprint, order
        if decoded["status"] != PROVED:
            event.cache_hits += 1
            if METRICS.enabled:
                METRICS.counter("scc.cache.hit").inc()
            return SCCResult(
                members=members,
                status=decoded["status"],
                reason=decoded["reason"],
                constraint_rows=decoded["rows"],
                cache="hit",
                fingerprint=fingerprint,
            ), fingerprint, order
        systems = scc_rule_systems(
            self.program, members, environment, self.norm
        )
        proof = SCCProof(
            members=members,
            norm=self.norm.name,
            lambdas=decoded["lambdas"] or {},
            thetas=decoded["thetas"] or {},
            rule_systems=systems,
        )
        try:
            verify_proof(proof)
        except VerificationError:
            # The soundness guard: never trust an unverifiable reused
            # certificate — count the rejection and re-prove fresh.
            event.cache_hits += 1
            event.cache_misses += 1
            if METRICS.enabled:
                METRICS.counter("scc.cache.rejected").inc()
            return None, fingerprint, order
        event.cache_hits += 1
        if METRICS.enabled:
            METRICS.counter("scc.cache.hit").inc()
        return SCCResult(
            members=members,
            status=PROVED,
            proof=proof,
            constraint_rows=decoded["rows"],
            cache="hit",
            fingerprint=fingerprint,
        ), fingerprint, order

    def _publish_certificate(self, result, fingerprint, order, cache_state):
        """Record a freshly-solved SCC outcome in the cache (when one
        is installed) and stamp the result's cache provenance."""
        if self.certificate_cache is None or not fingerprint:
            return result
        from repro.core.certcache import encode_scc_certificate

        result.cache = cache_state or "miss"
        result.fingerprint = fingerprint
        self.certificate_cache.put(
            fingerprint, encode_scc_certificate(result, order), kind="cert"
        )
        if METRICS.enabled:
            METRICS.counter("scc.cache.puts").inc()
        return result

    def _stage_rule_systems(self, state, event):
        """Assemble the Eq. 1 systems for every rule × recursive subgoal."""
        members = state.members
        state.bound_positions = {
            node: node.bound_positions() for node in members
        }
        if any(not positions for positions in state.bound_positions.values()):
            free_nodes = [
                str(node) for node in members
                if not state.bound_positions[node]
            ]
            return SCCResult(
                members=members,
                status=UNKNOWN,
                reason="no bound arguments on %s; no measure can decrease"
                % ", ".join(free_nodes),
            )
        environment, _ = self._obtain_environment()
        state.systems = scc_rule_systems(
            self.program, members, environment, self.norm
        )
        if not state.systems:
            return SCCResult(
                members=members,
                status=UNKNOWN,
                reason="no rule/recursive-subgoal combinations found",
            )
        event.rows_out = sum(len(s.imported) for s in state.systems)
        return None

    def _stage_dualize(self, state, event):
        """LP-dualize each pair into lambda/theta constraints."""
        state.combined = ConstraintSystem()
        for system in state.systems:
            with span(
                "dualize.pair",
                head=system.head_node,
                subgoal=system.subgoal_node,
            ) as node:
                rows = pair_constraints(
                    system, eliminate_w=self.settings.eliminate_w
                )
                node.inc("rows_out", len(rows))
            state.combined.extend(rows)
        state.lambda_system = lambda_nonnegativity(
            (node, state.bound_positions[node]) for node in state.members
        )
        state.edges = [system.edge for system in state.systems]
        event.rows_out = len(state.combined) + len(state.lambda_system)
        return None

    def _stage_theta(self, state, event):
        """Choose theta offsets (Section 6.1) or, in Appendix C mode,
        build the positive-cycle path constraints."""
        event.rows_in = len(state.combined)
        if self.settings.allow_negative_theta:
            state.paths = path_constraints(state.members, state.edges)
            event.rows_out = len(state.paths)
            return None
        state.thetas = choose_thetas(
            state.edges, state.combined, state.lambda_system
        )
        cycle = zero_weight_cycle(state.members, state.thetas)
        if cycle is not None:
            return SCCResult(
                members=state.members,
                status=UNKNOWN,
                reason="zero-weight cycle %s — strong evidence of "
                "nontermination (Section 6.1)"
                % " -> ".join(str(node) for node in cycle),
                constraint_rows=len(state.combined),
            )
        return None

    def _assemble_final(self, state):
        """Build (and remember) the final lambda feasibility system."""
        if self.settings.allow_negative_theta:
            final = ConstraintSystem(state.combined)
            final.extend(state.lambda_system)
            final.extend(state.paths)
        else:
            final = substitute_thetas(state.combined, state.thetas)
            final.extend(state.lambda_system)
        state.final = final
        return final

    def _solve_verdict(self, state, event):
        """Fold ``state.outcome`` into the solve *event*; an UNKNOWN
        :class:`SCCResult` on infeasibility, None to continue."""
        event.rows_in = event.rows_out = len(state.final)
        event.pivots = state.outcome.stats.pivots
        if not state.outcome.feasible:
            if self.settings.allow_negative_theta:
                reason = ("infeasible even with negative theta weights "
                          "(Appendix C)")
            else:
                reason = "lambda constraint system infeasible"
            return SCCResult(
                members=state.members,
                status=UNKNOWN,
                reason=reason,
                constraint_rows=len(state.final),
            )
        return None

    def _stage_solve(self, state, event):
        """Final lambda feasibility through the exact simplex."""
        final = self._assemble_final(state)
        state.outcome = SimplexBackend().feasible_point(final)
        return self._solve_verdict(state, event)

    def _stage_certify(self, state, event):
        """Extract the lambda (and, in Appendix C mode, theta) witness."""
        point = state.outcome.witness
        thetas = state.thetas
        if thetas is None:  # Appendix C: thetas come from the LP point
            thetas = {
                edge: point.get(theta_var(*edge), Fraction(0))
                for edge in set(state.edges)
            }
        lambdas = _extract_lambdas(point, state.members, state.bound_positions)
        proof = SCCProof(
            members=state.members,
            norm=self.norm.name,
            lambdas=lambdas,
            thetas=thetas,
            rule_systems=state.systems,
        )
        return SCCResult(
            members=state.members,
            status=PROVED,
            proof=proof,
            constraint_rows=len(state.final),
        )


def _extract_lambdas(point, members, bound_positions):
    lambdas = {}
    for node in members:
        weights = {}
        for position in bound_positions[node]:
            weights[position] = point.get(lam_var(node, position), Fraction(0))
        lambdas[node] = weights
    return lambdas
