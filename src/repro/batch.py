"""Batch and parallel analysis: many program×mode pairs at once.

The corpus drivers, the ``--all-modes`` CLI sweep, and the scaling
benchmarks all share the same shape of work: a list of independent
(program, root, mode) analyses whose results are folded into one
verdict table and one merged :class:`~repro.core.AnalysisTrace`.
:func:`analyze_many` is that loop, with an optional process pool:

- **items** carry program *source text*, not parsed objects —
  :class:`~repro.linalg.linexpr.LinearExpr` (and everything built from
  it) is immutable via a raising ``__setattr__`` and does not pickle,
  so workers parse their own copy and ship back only slim, picklable
  :class:`BatchResult` records plus their stage traces;
- **chunking** groups items by source text, so one worker analyzes
  every mode of a program with a single
  :class:`~repro.methods.MethodRunner` — reusing the inferred
  inter-argument environment exactly like the serial sweep does (large groups are split when there are fewer
  programs than workers); ``settings.method`` picks the registered
  termination prover (``argsize`` by default);
- ``jobs=1`` runs in-process with no executor and no pickling — the
  reference path the parallel results are tested against.

Worker processes have their *own* memoization caches, so merged
``cache_hits``/``cache_misses`` differ from a serial run; the
structural counters (calls, rows, pivots) and the
verdicts are identical, which ``tests/core/test_batch.py`` enforces.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.errors import AnalysisError, ReproError
from repro.lp import parse_program
from repro.core import (
    AnalysisTrace,
    AnalyzerSettings,
    MemoryCertificateCache,
    validate_query,
)
from repro.obs import METRICS, diff_snapshots, merge_snapshots

__all__ = ["BatchItem", "BatchResult", "BatchReport", "analyze_many"]


@dataclass(frozen=True)
class BatchItem:
    """One unit of work: analyze *root* in *mode* over *source*."""

    name: str
    source: str
    root: tuple
    mode: str


@dataclass
class BatchResult:
    """Slim, picklable outcome of one :class:`BatchItem`.

    ``status`` is ``PROVED``/``UNKNOWN``, or ``ERROR`` with the message
    in ``error``; ``reasons`` lists the failing SCCs' explanations;
    ``constraint_rows``/``pivots`` summarize the analysis work (the
    scaling benchmarks plot them); ``baselines`` maps baseline method
    names to their statuses when the batch requested them; ``worker``
    identifies the worker process that ran the item (compact ids in
    first-completion order, 0 for in-process runs) — the corpus sweep
    uses it for its load-balance summary.
    """

    name: str
    root: tuple
    mode: str
    status: str
    wall_time: float = 0.0
    worker: int = 0
    constraint_rows: int = 0
    pivots: int = 0
    reasons: tuple = ()
    baselines: dict = field(default_factory=dict)
    error: str = ""
    sccs_reused: int = 0
    sccs_reproved: int = 0

    @property
    def proved(self):
        """True when the verdict is PROVED."""
        return self.status == "PROVED"

    @property
    def elapsed_s(self):
        """Wall-clock seconds the item took (alias of ``wall_time``)."""
        return self.wall_time


@dataclass
class BatchReport:
    """Everything :func:`analyze_many` produced.

    ``results`` preserves input order; ``trace`` is the stage traces of
    every analysis merged (the same fold the serial sweeps print);
    ``metrics`` is the merged metric snapshot of every worker — the
    corpus-level counter totals, regardless of how the work was split.
    ``certificates`` holds the per-SCC cache entries the batch ended
    with (empty unless ``incremental=True``) — feed them back in as
    the next batch's ``certificates`` to carry reuse across sweeps.
    """

    results: list
    trace: AnalysisTrace
    jobs: int
    wall_time: float = 0.0
    metrics: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)

    @property
    def all_proved(self):
        """True when every item's verdict is PROVED."""
        return all(r.proved for r in self.results)


def as_batch_item(entry, index=0):
    """Coerce corpus entries / tuples / dicts into a :class:`BatchItem`."""
    if isinstance(entry, BatchItem):
        return entry
    if hasattr(entry, "source") and hasattr(entry, "root"):
        return BatchItem(
            name=getattr(entry, "name", "item%d" % index),
            source=entry.source,
            root=tuple(entry.root),
            mode=entry.mode,
        )
    if isinstance(entry, dict):
        return BatchItem(
            name=entry.get("name", "item%d" % index),
            source=entry["source"],
            root=tuple(entry["root"]),
            mode=entry["mode"],
        )
    if isinstance(entry, tuple) and len(entry) == 3:
        source, root, mode = entry
        return BatchItem(
            name="item%d" % index, source=source,
            root=tuple(root), mode=mode,
        )
    raise TypeError(
        "cannot interpret %r as a batch item; pass a BatchItem, a "
        "corpus entry, a (source, root, mode) tuple, or a dict" % (entry,)
    )


def analyze_many(entries, jobs=1, settings=None, baselines=(),
                 incremental=False, certificates=None):
    """Analyze every entry; return a :class:`BatchReport`.

    *entries* — any mix of :class:`BatchItem`, corpus entries, or
    ``(source, root, mode)`` tuples.  *jobs* — worker processes
    (``1`` = in-process, the reference path).  *baselines* — optional
    :class:`~repro.baselines.BaselineMethod` objects to run alongside
    the paper's analyzer (their statuses land in
    :attr:`BatchResult.baselines`).

    *incremental* gives every worker a per-SCC certificate cache,
    seeded from *certificates* (a prior report's
    :attr:`BatchReport.certificates`); each worker's final entries are
    merged into the returned report.  Workers do not share entries
    mid-batch (caches are process-local), so the win inside one cold
    batch is modest — the payoff is warm re-runs seeded from a prior
    report.  Verdicts are byte-identical either way.

    Entries sharing a (source, root, mode) triple are solved once;
    the report still lists one :class:`BatchResult` per requested
    entry (duplicates get a copy under their own name).  Roots are
    validated against the parsed program before analysis, so a typo'd
    root comes back as a clear ``ERROR`` result, not a vacuous
    verdict.
    """
    items = [as_batch_item(entry, i) for i, entry in enumerate(entries)]
    settings = settings or AnalyzerSettings()
    if jobs < 1:
        raise AnalysisError("jobs must be >= 1, got %d" % jobs)
    baseline_names = tuple(method.name for method in baselines)

    started = perf_counter()
    merged = AnalysisTrace()
    results = [None] * len(items)

    # Identical (source, root, mode) items are solved once; the extra
    # requesters are satisfied from the first answer below.  Batch
    # sweeps with overlapping slices and multi-client fan-in through
    # repro.serve routinely repeat work units, and analysis is a pure
    # function of that triple (the name rides along per requester).
    first_of = {}
    duplicate_of = {}
    indexed = []
    for index, item in enumerate(items):
        key = (item.source, item.root, item.mode)
        if key in first_of:
            duplicate_of[index] = first_of[key]
        else:
            first_of[key] = index
            indexed.append((index, item))

    seed = dict(certificates) if certificates else {}
    merged_certificates = {}
    snapshots = []
    workers = {}
    if jobs == 1 or len(indexed) <= 1:
        chunk_results, trace, snapshot, cert_entries = _run_chunk(
            indexed, settings, baseline_names, incremental, seed
        )
        for index, result in chunk_results:
            result.worker = workers.setdefault(result.worker, len(workers))
            results[index] = result
        merged.merge(trace)
        snapshots.append(snapshot)
        merged_certificates.update(cert_entries)
    else:
        chunks = _make_chunks(indexed, jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_chunk, chunk, settings, baseline_names,
                            incremental, seed)
                for chunk in chunks
            ]
            for future in futures:
                chunk_results, trace, snapshot, cert_entries = (
                    future.result()
                )
                for index, result in chunk_results:
                    result.worker = workers.setdefault(
                        result.worker, len(workers)
                    )
                    results[index] = result
                merged.merge(trace)
                snapshots.append(snapshot)
                # Fingerprints are content addresses: two workers can
                # only disagree on a key by storing identical payloads.
                merged_certificates.update(cert_entries)
        # Worker registries died with their processes; fold their
        # counts into this process so --metrics sees the whole batch.
        # (jobs=1 ran in-process — its counts are already here.)
        if METRICS.enabled:
            for snapshot in snapshots:
                METRICS.merge_snapshot(snapshot)

    for index, source_index in duplicate_of.items():
        results[index] = replace(results[source_index],
                                 name=items[index].name)

    return BatchReport(
        results=results,
        trace=merged,
        jobs=jobs,
        wall_time=perf_counter() - started,
        metrics=merge_snapshots(*snapshots),
        certificates=merged_certificates,
    )


def _make_chunks(indexed, jobs):
    """Group (index, item) pairs by source text, splitting any group
    further when there are fewer programs than workers.

    Grouping keeps a program's items in one worker, so they share its
    parse and hit its process-wide environment cache (keyed by program
    fingerprint); splitting keeps all workers busy on the
    ``--all-modes`` shape (one program, many modes)."""
    groups = {}
    for index, item in indexed:
        groups.setdefault(item.source, []).append((index, item))
    ordered = list(groups.values())
    if len(ordered) >= jobs:
        return ordered
    pieces_per_group = -(-jobs // len(ordered))  # ceil
    chunks = []
    for group in ordered:
        pieces = min(len(group), pieces_per_group)
        size = -(-len(group) // pieces)
        chunks.extend(
            group[start:start + size]
            for start in range(0, len(group), size)
        )
    return chunks


def _run_chunk(indexed, settings, baseline_names, incremental=False,
               certificates=None):
    """Worker body: analyze one chunk, parsing once per run of
    consecutive items with identical source.

    Returns ``(results, trace, metrics_delta, cert_entries)`` — the
    delta is what *this chunk* added to the process-wide metrics
    registry, so the parent can merge worker registries it otherwise
    cannot see; ``cert_entries`` are the worker-local certificate
    cache's final entries (empty unless *incremental*).
    ``BatchResult.worker`` leaves here as the worker's pid; the parent
    remaps pids to compact ids.
    """
    from repro.methods import MethodRunner

    worker = os.getpid()
    methods = _resolve_baselines(baseline_names)
    cache = (
        MemoryCertificateCache(entries=dict(certificates or {}))
        if incremental else None
    )
    before = METRICS.snapshot()
    trace = AnalysisTrace()
    out = []
    runner = MethodRunner(settings=settings, certificate_cache=cache)
    program = None
    current_source = None
    for index, item in indexed:
        item_started = perf_counter()
        try:
            if item.source != current_source:
                program = parse_program(item.source)
                current_source = item.source
            validate_query(program, item.root, item.mode)
            result = runner.analyze(program, tuple(item.root), item.mode)
        except ReproError as error:
            out.append((index, BatchResult(
                name=item.name, root=tuple(item.root), mode=item.mode,
                status="ERROR", error=str(error),
                wall_time=perf_counter() - item_started,
                worker=worker,
            )))
            continue
        trace.merge(result.trace)
        verdicts = {}
        for method in methods:
            verdicts[method.name] = method.analyze(
                program, tuple(item.root), item.mode
            ).status
        out.append((index, BatchResult(
            name=item.name,
            root=tuple(item.root),
            mode=item.mode,
            status=result.status,
            wall_time=perf_counter() - item_started,
            worker=worker,
            constraint_rows=sum(
                scc.constraint_rows for scc in result.scc_results
            ),
            pivots=result.trace.stage("solve").pivots,
            reasons=tuple(
                scc.reason for scc in result.failing_sccs()
            ),
            baselines=verdicts,
            sccs_reused=result.sccs_reused,
            sccs_reproved=result.sccs_reproved,
        )))
    return (out, trace, diff_snapshots(METRICS.snapshot(), before),
            dict(cache.entries) if cache is not None else {})


def _resolve_baselines(names):
    """Baseline methods by name (resolved worker-side: the method
    objects themselves need not be picklable)."""
    if not names:
        return ()
    from repro.baselines import ALL_BASELINES

    by_name = {method.name: method for method in ALL_BASELINES}
    try:
        return tuple(by_name[name] for name in names)
    except KeyError as error:
        raise AnalysisError(
            "unknown baseline method %s; available: %s"
            % (error, ", ".join(sorted(by_name)))
        ) from None
