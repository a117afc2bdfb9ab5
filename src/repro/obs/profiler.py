"""A stdlib sampling profiler emitting collapsed flamegraph stacks.

:class:`SamplingProfiler` wakes every *interval* seconds on a daemon
thread, snapshots every other thread's Python stack via
``sys._current_frames()``, and aggregates identical stacks into
counts.  The output is Brendan Gregg's collapsed-stack format — one
``frame;frame;frame count`` line per distinct stack, root first — the
direct input of ``flamegraph.pl``, ``speedscope``, and ``inferno``.

Sampling costs one stack walk per live thread per tick and nothing
between ticks; at the default 5 ms interval the overhead on the
analysis workload is noise, which is what makes it safe to toggle on
a *production* daemon (``repro-serve`` flips it on SIGUSR2) rather
than only in offline runs (``repro-analyze --profile-out``).

Caveats, stated rather than hidden: ``sys._current_frames`` is
CPython-specific; samples are taken at bytecode boundaries, so a
single long-running C call (a sqlite query) shows up as one hot frame
rather than its internals; and wall-clock sampling sees blocked
threads too — a thread waiting on a lock accumulates samples in the
frame that waits, which is exactly what an operator debugging a stall
wants.
"""

from __future__ import annotations

import os
import sys
import threading
from time import perf_counter, sleep

__all__ = ["SamplingProfiler"]


def _frame_label(frame):
    """``module:function`` — short enough to read in a flamegraph,
    unique enough to aggregate on."""
    module = frame.f_globals.get("__name__")
    if not module:
        module = os.path.basename(frame.f_code.co_filename)
    return "%s:%s" % (module, frame.f_code.co_name)


class SamplingProfiler:
    """Periodic whole-process stack sampler.

    Use as a context manager or via :meth:`start`/:meth:`stop`.
    *interval* is the target seconds between samples; *only_thread*
    restricts sampling to one thread id (e.g. the solving thread)
    instead of every thread in the process.
    """

    def __init__(self, interval=0.005, only_thread=None):
        if interval <= 0:
            raise ValueError("interval must be positive, got %r" % interval)
        self.interval = interval
        self.only_thread = only_thread
        self.counts = {}
        self.samples = 0
        self.started_at = None
        self.stopped_at = None
        self._stop = threading.Event()
        self._thread = None

    @property
    def active(self):
        """True while the sampling thread is running."""
        return self._thread is not None and self._thread.is_alive()

    def start(self):
        """Begin sampling (idempotent while running)."""
        if self.active:
            return self
        self._stop.clear()
        self.started_at = perf_counter()
        self.stopped_at = None
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(max(1.0, 10 * self.interval))
        self._thread = None
        self.stopped_at = perf_counter()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def _sample_loop(self):
        own_id = threading.get_ident()
        while not self._stop.is_set():
            self._take_sample(own_id)
            sleep(self.interval)

    def _take_sample(self, own_id):
        for thread_id, frame in sys._current_frames().items():
            if thread_id == own_id:
                continue
            if self.only_thread is not None and thread_id != self.only_thread:
                continue
            stack = []
            while frame is not None:
                stack.append(_frame_label(frame))
                frame = frame.f_back
            if not stack:
                continue
            stack.reverse()  # root first, leaf last — collapsed order
            key = ";".join(stack)
            self.counts[key] = self.counts.get(key, 0) + 1
            self.samples += 1

    # -- output ----------------------------------------------------------------

    def collapsed(self):
        """The collapsed-stack text: ``stack count`` lines, hottest
        first (ties alphabetical, so output is deterministic)."""
        ordered = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join("%s %d" % item for item in ordered)

    def write(self, path):
        """Write :meth:`collapsed` to *path*; returns the number of
        distinct stacks written."""
        text = self.collapsed()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")
        return len(self.counts)

    def __repr__(self):
        return "<SamplingProfiler %s samples=%d stacks=%d>" % (
            "active" if self.active else "stopped",
            self.samples, len(self.counts),
        )
