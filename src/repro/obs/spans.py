"""Hierarchical spans: the unit of structured tracing.

A :class:`Span` is one timed region of work — a pipeline stage, one
SCC, one dualization, one backend solve — with a name, arbitrary
attributes (*which* SCC, *which* predicate), integer counters, a wall
time, and child spans.  A :class:`Tracer` owns a forest of root spans
and maintains the open-span stack, so nested ``with tracer.span(...)``
blocks build parent/child links automatically.

Instrumented library code that does not want to thread a tracer
through every call signature uses the ambient form::

    from repro.obs import span

    with span("solve.simplex", rows=len(system)) as s:
        ...
        s.inc("pivots", count)

which attaches to whichever tracer is *active* on this thread (a
tracer is active while one of its spans is open, or inside
:func:`activate`).  With no active tracer the span is detached: it is
still yielded — callers may set counters unconditionally — but
recorded nowhere and costs one small allocation.

Spans hold only JSON-atomic attribute values (anything else is
stringified on entry), so a span tree pickles across process
boundaries (the batch workers ship theirs back to the parent) and
serializes losslessly to the JSONL event schema of
:mod:`repro.obs.sinks`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Span", "Tracer", "activate", "active_tracer", "span"]

_ATOMIC = (str, int, float, bool, type(None))


def _clean(value):
    """Attribute values must survive JSON and pickling."""
    return value if isinstance(value, _ATOMIC) else str(value)


class Span:
    """One timed, attributed, countered region of work."""

    def __init__(self, name, attrs=None):
        self.name = name
        self.attrs = {
            key: _clean(value) for key, value in (attrs or {}).items()
        }
        self.counters = {}
        self.started = 0.0     # perf_counter() at open (process-local)
        self.wall_s = 0.0      # seconds between open and close
        self.children = []

    # -- recording -------------------------------------------------------------

    def inc(self, counter, amount=1):
        """Add *amount* to the named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set(self, **attrs):
        """Attach (JSON-atomic) attributes to the span."""
        for key, value in attrs.items():
            self.attrs[key] = _clean(value)

    # -- structure -------------------------------------------------------------

    def walk(self):
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name):
        """Every span named *name* in this subtree, pre-order."""
        return [s for s in self.walk() if s.name == name]

    @property
    def self_s(self):
        """Wall time not accounted for by direct children."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    # -- serialization ---------------------------------------------------------

    def to_dict(self, origin=None):
        """Plain-dict form (children nested); ``start_s`` is relative
        to *origin* (defaults to this span's own open time)."""
        if origin is None:
            origin = self.started
        return {
            "name": self.name,
            "start_s": round(self.started - origin, 9),
            "wall_s": self.wall_s,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [c.to_dict(origin) for c in self.children],
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a span tree from :meth:`to_dict` output (``started``
        then holds the origin-relative offset)."""
        span = cls(data["name"], data.get("attrs") or {})
        span.counters = dict(data.get("counters") or {})
        span.started = data.get("start_s", 0.0)
        span.wall_s = data.get("wall_s", 0.0)
        span.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return span

    def __repr__(self):
        return "<span %s %.3fms children=%d>" % (
            self.name, self.wall_s * 1000, len(self.children)
        )


_ACTIVE = threading.local()


def active_tracer():
    """The tracer ambient :func:`span` calls attach to, or None."""
    return getattr(_ACTIVE, "tracer", None)


@contextmanager
def activate(tracer):
    """Make *tracer* the ambient tracer for the duration of the block."""
    previous = active_tracer()
    _ACTIVE.tracer = tracer
    try:
        yield tracer
    finally:
        _ACTIVE.tracer = previous


class Tracer:
    """Owns a forest of root spans plus the open-span stack.

    Opening a span also makes its tracer the thread's active tracer,
    so ambient :func:`span` calls from instrumented library code land
    under the innermost open span.  Closing restores the previous
    active tracer — tracers nest safely.
    """

    def __init__(self):
        self.roots = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        """Open a child span of the innermost open span (or a new root)."""
        node = Span(name, attrs)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        previous = active_tracer()
        _ACTIVE.tracer = self
        node.started = perf_counter()
        try:
            yield node
        finally:
            node.wall_s += perf_counter() - node.started
            _ACTIVE.tracer = previous
            self._stack.pop()

    def adopt(self, spans):
        """Graft already-closed spans (e.g. from another process's
        tracer) into this forest as additional roots."""
        self.roots.extend(spans)
        return self

    def iter_spans(self):
        """Every recorded span, pre-order across the root forest."""
        for root in self.roots:
            yield from root.walk()

    # -- pickling (the open-span stack never crosses processes) ---------------

    def __getstate__(self):
        return {"roots": self.roots}

    def __setstate__(self, state):
        self.roots = state["roots"]
        self._stack = []


@contextmanager
def span(name, **attrs):
    """Ambient span: attach to the active tracer, or run detached."""
    tracer = active_tracer()
    if tracer is None:
        yield Span(name, attrs)
        return
    with tracer.span(name, **attrs) as node:
        yield node
