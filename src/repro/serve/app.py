"""The asyncio JSON-over-HTTP analysis daemon (``repro-serve``).

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, stdlib only — composing the three layers the rest of the
repo already provides: the analysis pipeline (via
:mod:`repro.serve.pool` workers), the content-addressed store
(:mod:`repro.serve.store`), and the observability stack
(:mod:`repro.obs`).

Endpoints::

    POST /v1/analyze     {"source": ..., "root": "perm/2",
                          "mode": "bf", "settings": {...}}
    GET  /v1/health      liveness + store/pool/queue stats
    GET  /v1/metrics     repro.obs.METRICS snapshot (all workers merged)
                         — JSON by default; ``?format=prometheus`` or
                         ``Accept: text/plain`` answers the Prometheus
                         text exposition real scrapers ingest
    GET  /v1/status      ops summary: overload/backpressure state,
                         rolling 1m/5m SLO windows (p50/p95/p99,
                         error rate), access-log drops, profiler state
    GET  /v1/trace/{id}  repro.trace/1 JSONL telemetry of request {id}

``POST /v1/analyze`` answers 200 with the canonical verdict payload.
Response headers carry what the body must not (the body is
byte-identical for identical requests): ``X-Repro-Key`` is the
request's content address — also its trace id — ``X-Repro-Cache``
says ``hit`` or ``miss``, and ``X-Repro-Request-Id`` is this
*request's* unique id, the join key between the access-log line, the
stored trace's root span, and whatever the client logs.  A request
carrying ``"incremental": true`` additionally reuses per-SCC
certificates from the store while solving; on a miss the response
then adds ``X-Repro-SCC-Reused`` and ``X-Repro-SCC-Reproved`` counts
(the body stays byte-identical with or without the flag).

Operational channels (all optional, all off the hot path):
``--access-log`` emits one ``repro.access/1`` JSON line per request
through the bounded non-blocking writer of
:mod:`repro.obs.ops.accesslog`; the in-process
:class:`~repro.obs.ops.slo.SloTracker` keeps rolling latency/error
windows over ``/v1/analyze`` traffic; SIGUSR2 toggles the sampling
profiler (:mod:`repro.obs.profiler`) and dumps collapsed stacks to
``--profile-out`` on the second signal; ``repro-top`` renders all of
it live.

Admission control: at most ``max_inflight`` requests may be queued or
solving; request ``max_inflight + 1`` is refused immediately with 429
(back off and retry beats silently queueing into a timeout).  Each
admitted solve races a wall-clock deadline: the worker-side SIGALRM
cancels the computation, an ``asyncio.wait_for`` backstop fails the
request with 504 even if the worker cannot be interrupted.  SIGTERM
and SIGINT drain: the listener closes, new requests get 503, in-flight
requests finish and are persisted, then the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import signal
import sys
import uuid
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter, time
from urllib.parse import parse_qs

from repro.errors import AnalysisTimeout, ReproError
from repro.obs import METRICS, Span, Tracer, labeled
from repro.obs.ops import (
    ACCESS_SCHEMA,
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    SloTracker,
    render_prometheus,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.sinks import JsonlSink, write_trace
from repro.serve.protocol import (
    AnalyzeRequest,
    code_revision,
    payload_text,
)
from repro.serve.pool import SolverPool
from repro.serve.store import ResultStore

__all__ = ["ServeApp", "main", "serve_forever"]

_LATENCY_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                    5000)
_MAX_BODY = 8 << 20
_MAX_HEADER_LINES = 64


def _json_bytes(data):
    return (json.dumps(data, sort_keys=True) + "\n").encode()


class _HttpError(Exception):
    """Internal: unwinds request handling into an error response."""

    def __init__(self, status, message):
        self.status = status
        self.message = message
        super().__init__(message)


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def new_request_id():
    """A fresh request id: 16 hex chars, unique enough to join logs,
    traces, and client reports on."""
    return uuid.uuid4().hex[:16]


class _RequestContext:
    """Per-request state threaded from accept to access-log emit."""

    __slots__ = (
        "request_id", "started", "method", "path", "status", "bytes",
        "key", "verdict", "cache", "scc", "queue_ms", "solve_ms",
        "serialize_ms", "error", "root", "mode",
    )

    def __init__(self):
        self.request_id = new_request_id()
        self.started = perf_counter()
        self.method = ""
        self.path = ""
        self.status = None
        self.bytes = 0
        self.key = None
        self.verdict = None
        self.cache = None
        self.scc = None
        self.queue_ms = None
        self.solve_ms = None
        self.serialize_ms = None
        self.error = None
        self.root = None
        self.mode = None

    @property
    def total_ms(self):
        return (perf_counter() - self.started) * 1000

    def access_record(self):
        """The ``repro.access/1`` record for this finished request."""
        record = {
            "schema": ACCESS_SCHEMA,
            "ts": time(),
            "request_id": self.request_id,
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "bytes": self.bytes,
            "total_ms": round(self.total_ms, 3),
        }
        for field in ("key", "verdict", "cache", "error", "root", "mode"):
            value = getattr(self, field)
            if value is not None:
                record[field] = value
        for field in ("queue_ms", "solve_ms", "serialize_ms"):
            value = getattr(self, field)
            if value is not None:
                record[field] = round(value, 3)
        if self.scc is not None:
            record["sccs_reused"] = self.scc.get("reused", 0)
            record["sccs_reproved"] = self.scc.get("reproved", 0)
            record["sccs_rejected"] = self.scc.get("rejected", 0)
        return record


class ServeApp:
    """The daemon: routing, admission control, drain-then-exit."""

    def __init__(self, store, pool, *, max_inflight=None,
                 request_timeout=None, access_log=None, slo=None,
                 profile_out=None):
        self.store = store
        self.pool = pool
        self.max_inflight = (
            max_inflight if max_inflight is not None
            else max(4, 4 * pool.jobs)
        )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.request_timeout = request_timeout
        self.access_log = access_log
        self.slo = slo if slo is not None else SloTracker()
        self.profile_out = profile_out
        self.profiler = None
        self.draining = False
        self.inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = None
        self.port = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host="127.0.0.1", port=0):
        """Bind and start accepting; ``self.port`` gets the real port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def shutdown(self):
        """Drain then stop: close the listener, flag 503 for any
        connection already accepted, wait for in-flight requests, and
        close the store (so every finished verdict is persisted)."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        self.pool.shutdown()
        self.store.close()
        if self.profiler is not None and self.profiler.active:
            self.toggle_profiler()
        if self.access_log is not None:
            self.access_log.close()

    def toggle_profiler(self):
        """SIGUSR2 handler body: start the sampling profiler, or stop
        it and dump collapsed stacks to ``profile_out``.  Returns a
        human-readable status line (the caller logs it)."""
        if self.profiler is None or not self.profiler.active:
            self.profiler = SamplingProfiler()
            self.profiler.start()
            if METRICS.enabled:
                METRICS.gauge("serve.profiler.active").set(1)
            return "profiler started (%.3gms sampling interval)" % (
                self.profiler.interval * 1000
            )
        self.profiler.stop()
        if METRICS.enabled:
            METRICS.gauge("serve.profiler.active").set(0)
        path = self.profile_out or "repro-profile-%d.collapsed" % os.getpid()
        try:
            stacks = self.profiler.write(path)
        except OSError as error:
            return "profiler stopped; cannot write %s: %s" % (path, error)
        return "profiler stopped; %d stacks (%d samples) -> %s" % (
            stacks, self.profiler.samples, path
        )

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer):
        ctx = _RequestContext()
        try:
            try:
                method, path = await self._read_request_line(reader)
                ctx.method, ctx.path = method, path.partition("?")[0]
                headers = await self._read_headers(reader)
                body = await self._read_body(reader, headers)
            except _HttpError as error:
                ctx.error = error.message
                await self._respond(
                    ctx, writer, error.status,
                    _json_bytes({"error": error.message}),
                )
                return
            await self._dispatch(ctx, writer, method, path, body, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            if self.access_log is not None and ctx.status is not None:
                self.access_log.log(ctx.access_record())
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request_line(self, reader):
        line = await reader.readline()
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "malformed request line")
        return parts[0].upper(), parts[1]

    async def _read_headers(self, reader):
        headers = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raise _HttpError(400, "too many header lines")

    async def _read_body(self, reader, headers):
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > _MAX_BODY:
            raise _HttpError(
                413, "body exceeds %d bytes" % _MAX_BODY
            )
        if length <= 0:
            return b""
        return await reader.readexactly(length)

    async def _respond(self, ctx, writer, status, body, content_type=None,
                       extra_headers=()):
        first_response = ctx.status is None
        ctx.status = status
        ctx.bytes = len(body)
        if first_response:
            if METRICS.enabled:
                METRICS.counter(
                    labeled("serve.responses", status=status)
                ).inc()
            if ctx.path.startswith("/v1/analyze"):
                self.slo.observe(ctx.total_ms, error=status >= 500)
        reason = _REASONS.get(status, "Unknown")
        head = [
            "HTTP/1.1 %d %s" % (status, reason),
            "Content-Type: %s" % (content_type or "application/json"),
            "Content-Length: %d" % len(body),
            "Connection: close",
            "X-Repro-Request-Id: %s" % ctx.request_id,
        ]
        head.extend("%s: %s" % pair for pair in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
        writer.write(body)
        await writer.drain()

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, ctx, writer, method, path, body, headers):
        if METRICS.enabled:
            METRICS.counter("serve.requests").inc()
        path, _, query_text = path.partition("?")
        query = parse_qs(query_text) if query_text else {}
        if self.draining:
            await self._respond(
                ctx, writer, 503, _json_bytes({"error": "draining"})
            )
            return
        if path == "/v1/health":
            await self._require(ctx, writer, method, "GET") and \
                await self._health(ctx, writer)
        elif path == "/v1/metrics":
            await self._require(ctx, writer, method, "GET") and \
                await self._metrics(ctx, writer, query, headers)
        elif path == "/v1/status":
            await self._require(ctx, writer, method, "GET") and \
                await self._status(ctx, writer)
        elif path.startswith("/v1/trace/"):
            await self._require(ctx, writer, method, "GET") and \
                await self._trace(ctx, writer, path[len("/v1/trace/"):])
        elif path == "/v1/analyze":
            await self._require(ctx, writer, method, "POST") and \
                await self._analyze(ctx, writer, body)
        else:
            await self._respond(
                ctx, writer, 404,
                _json_bytes({"error": "no route %s" % path}),
            )

    async def _require(self, ctx, writer, method, expected):
        if method == expected:
            return True
        await self._respond(
            ctx, writer, 405,
            _json_bytes({"error": "%s required" % expected}),
        )
        return False

    # -- endpoints -------------------------------------------------------------

    async def _health(self, ctx, writer):
        await self._respond(ctx, writer, 200, _json_bytes({
            "status": "ok",
            "revision": code_revision(),
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "pool": {"jobs": self.pool.jobs, "lane": self.pool.lane},
            "store": self.store.stats(),
        }))

    def _wants_prometheus(self, query, headers):
        formats = query.get("format", [])
        if formats:
            return formats[-1] == "prometheus"
        accept = headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept

    async def _metrics(self, ctx, writer, query, headers):
        if METRICS.enabled:
            self.slo.publish(METRICS)
            METRICS.gauge("serve.inflight").set(self.inflight)
        snapshot = METRICS.snapshot()
        if self._wants_prometheus(query, headers):
            await self._respond(
                ctx, writer, 200,
                render_prometheus(snapshot).encode(),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
            return
        await self._respond(ctx, writer, 200, _json_bytes(snapshot))

    async def _status(self, ctx, writer):
        overloaded = self.inflight >= self.max_inflight
        if self.draining:
            state = "draining"
        elif overloaded:
            state = "overloaded"
        else:
            state = "ok"
        await self._respond(ctx, writer, 200, _json_bytes({
            "status": state,
            "revision": code_revision(),
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "draining": self.draining,
            "overloaded": overloaded,
            "pool": {
                "jobs": self.pool.jobs,
                "lane": self.pool.lane,
                "degraded": self.pool.degraded,
            },
            "slo": self.slo.summary(),
            "accesslog": {
                "enabled": self.access_log is not None,
                "dropped": (
                    self.access_log.dropped
                    if self.access_log is not None else 0
                ),
            },
            "profiler": {
                "active": bool(self.profiler and self.profiler.active),
                "samples": self.profiler.samples if self.profiler else 0,
            },
            "store": self.store.stats(),
        }))

    async def _trace(self, ctx, writer, key):
        jsonl = self.store.get_trace(key)
        if jsonl is None:
            await self._respond(
                ctx, writer, 404,
                _json_bytes({"error": "no trace for %r" % key}),
            )
            return
        await self._respond(
            ctx, writer, 200, jsonl.encode(),
            content_type="application/x-ndjson",
        )

    async def _analyze(self, ctx, writer, body):
        started = perf_counter()
        try:
            wire = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            ctx.error = "body is not valid JSON"
            await self._respond(
                ctx, writer, 400,
                _json_bytes({"error": "body is not valid JSON"}),
            )
            return
        try:
            request = AnalyzeRequest.from_wire(wire)
            # The store holds only answers to requests that parsed and
            # validated, so a hit skips the parse; a miss parses here,
            # once, so a bad source or root is a 400 before a worker
            # is taken.
            key = request.key()
            cached = self.store.get(key)
            program = request.parse() if cached is None else None
        except ReproError as error:
            ctx.error = str(error)
            await self._respond(
                ctx, writer, 400, _json_bytes({"error": str(error)})
            )
            return
        ctx.root = "%s/%d" % request.root
        ctx.mode = request.mode
        ctx.key = key
        if cached is not None:
            ctx.cache = "store-hit"
            try:
                ctx.verdict = json.loads(cached).get("status")
            except ValueError:
                pass
            await self._finish(ctx, writer, started, 200,
                               cached.encode(), key, "hit")
            return
        if self.inflight >= self.max_inflight:
            if METRICS.enabled:
                METRICS.counter("serve.rejected").inc()
            await self._respond(
                ctx, writer, 429, _json_bytes({
                    "error": "at capacity (%d in flight); retry later"
                             % self.inflight,
                }),
                extra_headers=(("Retry-After", "1"),),
            )
            return
        self.inflight += 1
        self._idle.clear()
        try:
            status, payload_bytes, scc = await self._solve(
                ctx, request, key, program
            )
        finally:
            self.inflight -= 1
            if self.inflight == 0:
                self._idle.set()
        await self._finish(ctx, writer, started, status, payload_bytes,
                           key, "miss", scc=scc)

    async def _finish(self, ctx, writer, started, status, body, key,
                      cache, scc=None):
        if METRICS.enabled:
            METRICS.histogram(
                "serve.request_ms", _LATENCY_BUCKETS
            ).observe((perf_counter() - started) * 1000)
        headers = [("X-Repro-Key", key), ("X-Repro-Cache", cache)]
        if scc is not None:
            headers.append(
                ("X-Repro-SCC-Reused", str(scc.get("reused", 0)))
            )
            headers.append(
                ("X-Repro-SCC-Reproved", str(scc.get("reproved", 0)))
            )
        await self._respond(
            ctx, writer, status, body, extra_headers=tuple(headers)
        )

    async def _solve(self, ctx, request, key, program):
        """Run one admitted solve of the parsed *program*; returns
        (status, body bytes, scc reuse stats or None)."""
        tracer = Tracer()
        cache_dir = self.store.root if request.incremental else None
        scc = None
        solve_started = perf_counter()
        try:
            with tracer.span("serve.request", key=key,
                             request_id=ctx.request_id,
                             root="%s/%d" % request.root,
                             mode=request.mode,
                             incremental=request.incremental,
                             lane=self.pool.lane) as serve_span:
                future = self.pool.submit(
                    request, self.request_timeout, cache_dir,
                    ctx.request_id, program,
                )
                try:
                    payload, roots, delta, scc, timings = (
                        await asyncio.wait_for(
                            asyncio.wrap_future(future),
                            timeout=self.request_timeout,
                        )
                    )
                except BrokenProcessPool:
                    # The pool died under us (worker OOM-killed, fork
                    # failure); degrade to the in-process serial lane
                    # and retry this request there.
                    serve_span.set(lane="serial", degraded=True)
                    payload, roots, delta, scc, timings = (
                        await asyncio.wait_for(
                            asyncio.wrap_future(
                                self.pool.submit_serial(
                                    request, self.request_timeout,
                                    cache_dir, ctx.request_id, program,
                                )
                            ),
                            timeout=self.request_timeout,
                        )
                    )
                serve_span.set(status=payload.get("status", ""))
                if request.incremental:
                    serve_span.set(sccs_reused=scc["reused"],
                                   sccs_reproved=scc["reproved"])
        except (asyncio.TimeoutError, AnalysisTimeout):
            if METRICS.enabled:
                METRICS.counter("serve.timeouts").inc()
            ctx.error = "timeout"
            return 504, _json_bytes({
                "error": "analysis exceeded the %.3gs request deadline"
                         % self.request_timeout,
            }), None
        except ReproError as error:
            if METRICS.enabled:
                METRICS.counter("serve.errors").inc()
            ctx.error = str(error)
            return 400, _json_bytes({"error": str(error)}), None
        except Exception as error:  # noqa: BLE001 — the 500 boundary
            if METRICS.enabled:
                METRICS.counter("serve.errors").inc()
            ctx.error = "%s: %s" % (type(error).__name__, error)
            return 500, _json_bytes({
                "error": "%s: %s" % (type(error).__name__, error),
            }), None
        solved = perf_counter()
        if METRICS.enabled and timings.get("pid") != os.getpid():
            # A worker process counted into its own registry; a solve
            # on the in-process serial lane already counted into ours.
            METRICS.merge_snapshot(delta)
        text = payload_text(payload)
        self.store.put(key, text,
                       root="%s/%d" % request.root, mode=request.mode)
        self._store_trace(key, tracer.roots, list(roots), delta,
                          request_id=ctx.request_id)
        ctx.verdict = payload.get("status")
        ctx.scc = scc
        ctx.cache = (
            "cert-reuse" if scc and scc.get("reused", 0) > 0 else "fresh"
        )
        ctx.solve_ms = timings.get("solve_ms")
        ctx.serialize_ms = (perf_counter() - solved) * 1000
        elapsed_ms = (perf_counter() - solve_started) * 1000
        ctx.queue_ms = max(
            0.0,
            elapsed_ms - (ctx.solve_ms or 0.0) - ctx.serialize_ms,
        )
        return 200, text.encode(), (scc if request.incremental else None)

    def _store_trace(self, key, serve_roots, worker_roots, delta,
                     request_id=None):
        """Persist the request's repro.trace/1 stream.

        Server-side spans and worker spans stay separate roots: their
        ``perf_counter`` clocks belong to different processes, so
        nesting one under the other would fabricate offsets.
        """
        buffer = io.StringIO()
        meta = {"request": key}
        if request_id is not None:
            meta["request_id"] = request_id
        write_trace(
            JsonlSink(buffer),
            list(serve_roots) + [
                root if isinstance(root, Span) else Span.from_dict(root)
                for root in worker_roots
            ],
            delta,
            meta=meta,
        )
        self.store.put_trace(key, buffer.getvalue())


async def serve_forever(app, host, port, ready=None):
    """Start *app*, install drain-on-SIGTERM/SIGINT, run until done."""
    await app.start(host, port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loop; Ctrl-C still raises
    if hasattr(signal, "SIGUSR2"):
        def _toggle():
            print("repro-serve: %s" % app.toggle_profiler(),
                  file=sys.stderr, flush=True)
        try:
            loop.add_signal_handler(signal.SIGUSR2, _toggle)
        except (NotImplementedError, RuntimeError):
            pass
    print("repro-serve listening on %s:%d (jobs=%d, queue=%d, "
          "store=%s)" % (host, app.port, app.pool.jobs,
                         app.max_inflight, app.store.path),
          file=sys.stderr, flush=True)
    if ready is not None:
        ready(app)
    await stop.wait()
    print("repro-serve draining %d in-flight request(s)..."
          % app.inflight, file=sys.stderr, flush=True)
    await app.shutdown()
    print("repro-serve drained; bye.", file=sys.stderr, flush=True)


def build_serve_parser():
    """Construct the argparse parser for ``repro-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running termination-analysis daemon: "
        "JSON over HTTP, content-addressed persistent result store, "
        "process-pool solving.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8421,
        help="TCP port (default 8421; 0 = ephemeral)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="persistent result store directory, shared with "
        "'repro-analyze --cache-dir' (default ./.repro-cache)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="solver worker processes (default 1: in-process serial)",
    )
    parser.add_argument(
        "--queue", type=int, default=None, metavar="N",
        help="max in-flight requests before 429 "
        "(default: max(4, 4*jobs))",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock deadline (default: none)",
    )
    parser.add_argument(
        "--max-entries", type=int, default=4096, metavar="N",
        help="verdict store bound before LRU eviction (default 4096)",
    )
    parser.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one repro.access/1 JSON line per request to PATH "
        "('-' = stderr); bounded and non-blocking — overflow drops "
        "lines and counts them in serve.accesslog.dropped",
    )
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="collapsed-stack output path for the SIGUSR2-toggled "
        "sampling profiler (default repro-profile-<pid>.collapsed)",
    )
    return parser


def main(argv=None):
    """``repro-serve`` entry point; returns the process exit code."""
    args = build_serve_parser().parse_args(argv)
    try:
        store = ResultStore(args.cache_dir,
                            max_entries=args.max_entries)
    except OSError as error:
        print("cannot open store: %s" % error, file=sys.stderr)
        return 2
    access_log = None
    if args.access_log is not None:
        from repro.obs.ops import AccessLogWriter

        destination = (
            sys.stderr if args.access_log == "-" else args.access_log
        )
        try:
            access_log = AccessLogWriter(destination)
        except OSError as error:
            print("cannot open access log: %s" % error, file=sys.stderr)
            store.close()
            return 2
    app = ServeApp(
        store,
        SolverPool(jobs=args.jobs),
        max_inflight=args.queue,
        request_timeout=args.timeout,
        access_log=access_log,
        profile_out=args.profile_out,
    )
    try:
        asyncio.run(serve_forever(app, args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
