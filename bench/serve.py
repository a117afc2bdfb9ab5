"""The serve-mixed workload: closed-loop requests to fresh daemons.

Each replica of a pass is one ``python -m repro.serve --port 0 --jobs
1`` daemon on a fresh store (``--jobs 1`` is the default: solves run
on the daemon's own worker thread), pinned to one CPU, and one client
thread of this process pinned to the same CPU that sends the seeded
request list over one connection, each request after the previous
reply.  Two replicas on two CPUs see the same requests in the same
order, so every request has one latency per replica.

The daemon's stderr goes to a file: the deep-term request writes about
170 KB of traceback there, and an unread pipe would fill and stall the
daemon.  Every daemon is stopped (SIGTERM, then SIGKILL) however the
pass ends.  With tracing, ``python -m bench.launcher`` runs the daemon
with the layer wrappers and an access log, and writes the layer report
when the daemon drains.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter

from bench import ROOT, child_env, pinned
from bench.inputs import (
    DECIDED,
    classify_response,
    deep_term_body,
    serve_programs,
    serve_requests,
    warm_up_bodies,
)
from bench.stats import geomean, median, percentile

__all__ = ["Daemon", "Outcome", "post", "run_pass", "setup_window",
           "tier_metrics"]

READY_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 60
#: A client sends no new request once its pass has run this long.
PASS_DEADLINE_S = 150

_LISTENING = re.compile(rb"listening on [^\s:]+:(\d+)")


@dataclass
class Outcome:
    """One request as the client saw it; ``status`` is None when no
    response arrived and ``error`` then says why.  ``start``/``end``
    are ``perf_counter`` stamps."""

    status: object
    body: bytes = b""
    cache: str = ""
    start: float = 0.0
    end: float = 0.0
    error: str = None


def post(port, data, timeout=REQUEST_TIMEOUT_S):
    """POST JSON *data* (bytes) to ``/v1/analyze`` on a new connection.

    A bare socket rather than ``http.client``: the daemon answers with
    ``Connection: close``, so the reply is everything up to EOF, and
    the client spends microseconds, not a share of a 1 ms store hit.
    """
    request = (b"POST /v1/analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: %d\r\n\r\n" % len(data)) + data
    chunks = []
    start = perf_counter()
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as connection:
            connection.sendall(request)
            chunk = connection.recv(65536)
            while chunk:
                chunks.append(chunk)
                chunk = connection.recv(65536)
    except ConnectionError:
        return Outcome(None, start=start, end=perf_counter(),
                       error="dropped")
    except OSError as error:
        return Outcome(None, start=start, end=perf_counter(),
                       error="exception: %s" % type(error).__name__)
    end = perf_counter()
    head, separator, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not separator:
        # The daemon closed the connection without a complete reply.
        return Outcome(None, start=start, end=end, error="dropped")
    lines = head.split(b"\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        return Outcome(None, start=start, end=end,
                       error="exception: bad status line")
    cache = ""
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"x-repro-cache":
            cache = value.strip().decode("latin-1")
    return Outcome(status, body, cache, start, end)


class Daemon:
    """One serve daemon on a fresh store under *directory*."""

    def __init__(self, directory, cpu=None, layers_path=None):
        self.directory = directory
        self.cpu = cpu
        self.layers_path = layers_path
        self.stderr_path = os.path.join(directory, "daemon.stderr")
        self.access_log = (os.path.join(directory, "access.jsonl")
                           if layers_path else None)
        self.process = None
        self.port = None
        self._stderr = None

    def start(self):
        os.makedirs(self.directory, exist_ok=True)
        serve_args = ["--port", "0", "--jobs", "1", "--cache-dir",
                      os.path.join(self.directory, "store")]
        if self.layers_path is None:
            command = [sys.executable, "-m", "repro.serve"] + serve_args
        else:
            command = [sys.executable, "-m", "bench.launcher",
                       self.layers_path] + serve_args + [
                           "--access-log", self.access_log]
        self._stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._stderr,
            preexec_fn=pinned(self.cpu),
        )
        return self

    def wait_ready(self, timeout=READY_TIMEOUT_S):
        """Block until ``/v1/health`` answers 200."""
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited with %d: %s" % (
                    self.process.returncode, self._stderr_tail()))
            if self.port is None:
                with open(self.stderr_path, "rb") as handle:
                    match = _LISTENING.search(handle.read())
                if match:
                    self.port = int(match.group(1))
            elif self._healthy():
                return
            time.sleep(0.002)
        raise RuntimeError("daemon not ready after %ds" % timeout)

    def warm_up(self):
        """Send the warm-up requests; each must be answered 200."""
        for body in warm_up_bodies():
            outcome = post(self.port, json.dumps(body).encode())
            if outcome.status != 200:
                raise RuntimeError("warm-up request failed: %s" % (
                    outcome.error or "HTTP %d" % outcome.status))

    def _healthy(self):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=5)
        try:
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            response.read()
            return response.status == 200
        except (OSError, http.client.HTTPException):
            return False
        finally:
            connection.close()

    def _stderr_tail(self):
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def peak_rss_mb(self):
        """The daemon's peak resident set (``VmHWM``) in MB."""
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for pid %d" % self.process.pid)

    def stop(self):
        """Drain the daemon with SIGTERM; kill it if that stalls."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


def setup_window(directory, cpu=None):
    """``(start, end)`` from spawning a daemon on a fresh store until
    its ``/v1/health`` answers and the warm-up requests are answered."""
    start = perf_counter()
    with Daemon(directory, cpu) as daemon:
        daemon.wait_ready()
        daemon.warm_up()
        return start, perf_counter()


def _drive(port, bodies, cpu):
    """Send *bodies* one after another from this thread, pinned to
    *cpu*; one :class:`Outcome` per body (None once past the
    deadline)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # Linux: this thread only
    stop_at = perf_counter() + PASS_DEADLINE_S
    outcomes = []
    for data in bodies:
        outcomes.append(post(port, data) if perf_counter() < stop_at
                        else None)
    return outcomes


def _rows(requests, outcomes):
    """Classified rows of one replica, and its decided program count."""
    first_body = {}
    verdicts = {}
    rows = []
    for request, outcome in zip(requests, outcomes):
        if outcome is None:
            rows.append({"name": request.program, "kind": request.kind,
                         "status": "not sent", "http": None, "cache": "",
                         "error": "not_sent", "start": 0.0, "end": 0.0})
            continue
        if outcome.status is None:
            status = outcome.error
        elif outcome.status == 200:
            try:
                status = json.loads(outcome.body).get("status", "")
            except (ValueError, AttributeError):
                status = "unreadable body"
        else:
            status = "HTTP %d" % outcome.status
        reference = None
        if request.kind == "unedited" and outcome.status == 200:
            reference = first_body.setdefault(request.program, outcome.body)
            verdicts.setdefault(request.program, status)
        rows.append({
            "name": request.program, "kind": request.kind,
            "status": status, "http": outcome.status,
            "cache": outcome.cache,
            "error": classify_response(request, outcome.status,
                                       outcome.body, reference),
            "start": outcome.start, "end": outcome.end,
        })
    decided = sum(1 for status in verdicts.values() if status in DECIDED)
    return rows, decided


def tier_metrics(rows, latencies):
    """Per-tier latencies of a pass (*latencies* in ms, one per row):
    store hits, cold solves and edits of answered requests, and the
    p95 of every request sent, with the tier sample counts."""
    tiers = {"hit": [], "cold": [], "edit": []}
    sent = []
    for row, ms in zip(rows, latencies):
        if row["error"] == "not_sent":
            continue
        sent.append(ms)
        if row["http"] != 200:
            continue
        if row["kind"] == "edit":
            tiers["edit"].append(ms)
        elif row["kind"] == "unedited":
            tiers["hit" if row["cache"] == "hit" else "cold"].append(ms)
    return {
        "hit_ms_p50": median(tiers["hit"]) if tiers["hit"] else 0.0,
        "cold_ms_geomean": geomean(tiers["cold"]) if tiers["cold"] else 0.0,
        "edit_ms_geomean": geomean(tiers["edit"]) if tiers["edit"] else 0.0,
        "latency_ms_p95": percentile(sent, 95) if sent else 0.0,
        "hit_requests": len(tiers["hit"]),
        "cold_requests": len(tiers["cold"]),
        "edit_requests": len(tiers["edit"]),
    }


def _access_p50s(path):
    """p50 of the daemon's own queue/solve/serialize breakdown over
    fresh solves, from its access log."""
    columns = {"queue_ms": [], "solve_ms": [], "serialize_ms": []}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            for name, values in columns.items():
                if name in record:
                    values.append(record[name])
    return {"serve.%s.p50" % name: median(values) if values else 0.0
            for name, values in columns.items()}


def run_pass(directory, seed, cpus, trace=False):
    """One serve-mixed pass: one replica per entry of *cpus* (None =
    unpinned); the pass record."""
    requests = serve_requests(seed)
    bodies = [json.dumps(request.body).encode() for request in requests]
    daemons = [
        Daemon(os.path.join(directory, "replica-%d" % index), cpu,
               os.path.join(directory, "layers-%d.json" % index)
               if trace else None)
        for index, cpu in enumerate(cpus)
    ]
    outcomes = [None] * len(daemons)
    with contextlib.ExitStack() as stack:
        for daemon in daemons:
            stack.enter_context(daemon)
        for daemon in daemons:
            daemon.wait_ready()
            daemon.warm_up()

        def client(index):
            outcomes[index] = _drive(daemons[index].port, bodies,
                                     daemons[index].cpu)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(daemons))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rss = [daemon.peak_rss_mb() for daemon in daemons]
        probe = post(daemons[0].port, json.dumps(deep_term_body()).encode())
    replicas = []
    for daemon, replica_outcomes, peak in zip(daemons, outcomes, rss):
        rows, decided = _rows(requests, replica_outcomes)
        sent = [row for row in rows if row["error"] != "not_sent"]
        replicas.append({
            "cpu": daemon.cpu,
            "wall": [sent[0]["start"], sent[-1]["end"]],
            "rows": rows,
            "peak_rss_mb": peak,
            "decided": decided,
            "considered": len(serve_programs()),
        })
    if trace:
        with open(daemons[0].layers_path) as handle:
            layers = json.load(handle)
        layers["batch.overhead_ms"] = 0
        layers.update(_access_p50s(daemons[0].access_log))
        rows = replicas[0]["rows"]
        tiers = tier_metrics(
            rows, [(row["end"] - row["start"]) * 1000 for row in rows])
        for name in ("hit_ms_p50", "cold_ms_geomean", "edit_ms_geomean",
                     "latency_ms_p95"):
            layers["serve." + name] = tiers[name]
        replicas[0]["layers"] = layers
    return {
        "replicas": replicas,
        "known_failures": {"deep_term": (
            probe.error if probe.status is None
            else "HTTP %d" % probe.status
        )},
    }
