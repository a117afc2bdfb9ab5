"""CPU-bound solve execution: process pool with serial degradation.

The server never solves on its event loop.  A :class:`SolverPool`
routes each validated request to one of two lanes:

- ``jobs > 1`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  whose workers parse their own copy of the program (analysis objects
  do not cross process boundaries, exactly as in :mod:`repro.batch`)
  and ship back a slim picklable triple ``(payload, span roots,
  metrics delta)``;
- the **serial lane** — a single-thread executor inside the server
  process.  It is the ``jobs=1`` path, and the graceful-degradation
  target when the process pool dies (fork bombs out, a worker is
  OOM-killed mid-task): the first :class:`BrokenProcessPool` flips
  the pool into degraded mode and every later request runs serially
  rather than failing.

Deadlines: :func:`deadline` arms a SIGALRM timer around the solve, so
an overrunning request is *cancelled inside the worker* (the paper's
method is exponential in the worst case — a pathological program must
not wedge a worker forever).  Pool workers run tasks on their main
thread, where SIGALRM is deliverable; the serial lane is a daemon
thread, where it is not — there the server's ``asyncio.wait_for``
backstop still fails the request at the deadline, but the computation
runs to completion in the background (the documented cost of degraded
mode).  ``repro-analyze --timeout`` reuses the same context manager on
the CLI's main thread.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

from repro.errors import AnalysisTimeout
from repro.methods import MethodRunner
from repro.obs import METRICS, diff_snapshots
from repro.serve.protocol import AnalyzeRequest, payload_from_result

__all__ = ["deadline", "solve_wire", "SolverPool"]


@contextmanager
def deadline(seconds):
    """Raise :class:`~repro.errors.AnalysisTimeout` in the block after
    *seconds* of wall-clock time.

    SIGALRM-based, so it interrupts pure-Python compute at the next
    bytecode boundary.  A no-op when *seconds* is None, on platforms
    without SIGALRM, or off the main thread (where the signal cannot
    be delivered) — callers needing a hard guarantee in those cases
    must layer their own backstop, as the server does.
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    if seconds <= 0:
        raise AnalysisTimeout(
            "deadline must be positive, got %r" % seconds, seconds=seconds
        )

    def _expired(signum, frame):
        raise AnalysisTimeout(
            "analysis exceeded its %.3gs deadline" % seconds,
            seconds=seconds,
        )

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)


def solve_wire(wire, timeout=None, cache_dir=None, request_id=None,
               program=None):
    """Worker body: solve one wire-format request.

    Returns ``(payload, roots, metrics_delta, scc_stats, timings)`` —
    the JSON-ready verdict payload, the request's span forest, what
    this solve added to the worker's metrics registry (the server
    merges it, so ``GET /v1/metrics`` aggregates over all workers), a
    ``{"reused": n, "reproved": n, "rejected": n}`` summary of per-SCC
    certificate reuse (zeros when no cache is in play), and a
    ``{"solve_ms": f, "pid": n}`` dict: the timing the server folds
    into the request's access-log latency breakdown, and the process
    that solved (the server merges only deltas from other processes).  Module-level and
    argument-picklable on purpose: this is the function the process
    pool imports by name.

    *cache_dir*, when set (the request asked for ``incremental`` and
    the server has a store), opens the shared persistent store in the
    worker and threads its certificate table through the analyzer.
    *request_id* lands on the root ``analyze`` span, joining the
    worker-side trace to the server's access-log line.  The payload is
    byte-identical either way; only wall time and the stats differ.
    *program*, when given, is the request's already parsed and
    validated program (the serial lane); otherwise the source is
    parsed here.
    """
    request = (
        wire if isinstance(wire, AnalyzeRequest)
        else AnalyzeRequest.from_wire(wire)
    )
    if program is None:
        program = request.parse()
    before = METRICS.snapshot()
    store = None
    certificate_cache = None
    if cache_dir is not None:
        from repro.serve.store import ResultStore, StoreCertificateCache

        store = ResultStore(cache_dir)
        certificate_cache = StoreCertificateCache(store)
    solve_started = perf_counter()
    try:
        with deadline(timeout):
            runner = MethodRunner(
                settings=request.settings,
                certificate_cache=certificate_cache,
            )
            result = runner.analyze(
                program, request.root, request.mode,
                request_id=request_id,
            )
    finally:
        if store is not None:
            store.close()
    return (
        payload_from_result(result),
        list(result.trace.roots),
        diff_snapshots(METRICS.snapshot(), before),
        {
            "reused": result.sccs_reused,
            "reproved": result.sccs_reproved,
            "rejected": result.sccs_rejected,
        },
        {
            "solve_ms": (perf_counter() - solve_started) * 1000,
            "pid": os.getpid(),
        },
    )


class SolverPool:
    """Routes solves to worker processes, degrading to in-process
    serial execution when the pool is unavailable."""

    def __init__(self, jobs=1):
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % jobs)
        self.jobs = jobs
        self.degraded = False
        self._serial = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-serial"
        )
        self._process = None
        if jobs > 1:
            try:
                self._process = ProcessPoolExecutor(max_workers=jobs)
            except (OSError, ValueError):
                self._note_degraded()

    @property
    def lane(self):
        """``"process"`` or ``"serial"`` — where solves run now."""
        if self._process is not None and not self.degraded:
            return "process"
        return "serial"

    def _note_degraded(self):
        if not self.degraded:
            self.degraded = True
            if METRICS.enabled:
                METRICS.counter("serve.pool.degraded").inc()

    def submit(self, wire, timeout=None, cache_dir=None, request_id=None,
               program=None):
        """A :class:`concurrent.futures.Future` for the solve.

        *program*, the request's parsed program, is used on the serial
        lane only: programs do not cross process boundaries, so a pool
        worker parses its own copy."""
        if self.lane == "process":
            try:
                return self._process.submit(
                    solve_wire, wire, timeout, cache_dir, request_id
                )
            except (OSError, RuntimeError):
                self._note_degraded()
        return self._serial.submit(
            solve_wire, wire, timeout, cache_dir, request_id, program
        )

    def submit_serial(self, wire, timeout=None, cache_dir=None,
                      request_id=None, program=None):
        """Force the serial lane (the retry path after a broken pool
        surfaced at result time rather than submit time)."""
        self._note_degraded()
        return self._serial.submit(
            solve_wire, wire, timeout, cache_dir, request_id, program
        )

    def shutdown(self):
        """Stop both lanes; running solves are not waited for."""
        if self._process is not None:
            self._process.shutdown(wait=False, cancel_futures=True)
            self._process = None
        self._serial.shutdown(wait=False, cancel_futures=True)
