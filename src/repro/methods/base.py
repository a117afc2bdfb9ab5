"""Pluggable termination provers: the method protocol + name registry.

Methods register themselves by name via the :func:`register_method`
class decorator, drivers resolve
names with :func:`get_method`, and unknown names fail with one clear
:class:`~repro.errors.AnalysisError` listing what is registered.

A :class:`TerminationMethod` maps a program plus a ``(root, mode)``
query to an :class:`~repro.core.pipeline.AnalysisResult`, under the
three-valued verdict model:

``PROVED``
    every derivation of every mode-compliant query is finite (a sound
    sufficient criterion fired);
``DISPROVED``
    some mode-compliant query of the root has an infinite derivation
    (a looping derivation was exhibited);
``UNKNOWN``
    neither — the method's criterion or budget did not decide.

``PROVED`` and ``DISPROVED`` are mutually exclusive for a sound method
set: a program cannot both terminate on every mode-compliant query and
diverge on one.  The registered provers (``argsize``, ``sizechange``,
``nonterm``, ``portfolio``) each document the guarantee they offer in
their own module; ``docs/METHODS.md`` has the comparison table.

:class:`MethodRunner` is what the drivers (CLI, batch workers, serve
workers) use: it binds settings + an optional certificate cache to the
resolved method once, keeps runner-scoped scratch (``argsize`` reuses
one analyzer per program object, preserving the batch layer's
analyzer-reuse-per-source behaviour), and wraps every analysis in the
``method.<name>.attempted`` / ``method.<name>.decided`` counters and
the ``method.<name>.ms`` latency histogram.
"""

from __future__ import annotations

from time import perf_counter

from repro.errors import AnalysisError
from repro.obs import METRICS
from repro.core.pipeline import DISPROVED, PROVED

__all__ = [
    "TerminationMethod",
    "register_method",
    "available_methods",
    "get_method",
    "observed_analyze",
    "MethodRunner",
    "run_method",
]

_METHODS = {}


class TerminationMethod:
    """Abstract termination prover.

    Subclasses set :attr:`name` (the registry key) and :attr:`cost`
    (a relative rank the portfolio uses to order attempts — lower is
    cheaper) and implement :meth:`analyze`.
    """

    name = "abstract"
    cost = 100

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None, state=None):
        """Analyze termination of the *mode* query on *root*.

        Returns an :class:`~repro.core.pipeline.AnalysisResult` whose
        ``status`` is PROVED, DISPROVED, or UNKNOWN and whose
        ``method`` names this prover.  *state*, when given, is a
        runner-scoped dict the method may use as scratch across calls
        (e.g. caching a per-program analyzer); it must never affect
        verdicts.
        """
        raise NotImplementedError


def register_method(cls):
    """Class decorator adding a :class:`TerminationMethod` subclass to
    the registry under its ``name`` (the latest registration wins)."""
    if not (isinstance(cls, type) and issubclass(cls, TerminationMethod)):
        raise TypeError(
            "register_method expects a TerminationMethod subclass, got %r"
            % (cls,)
        )
    _METHODS[cls.name] = cls
    return cls


def available_methods():
    """Registered method names, sorted."""
    return tuple(sorted(_METHODS))


def get_method(name):
    """Resolve a method by name (instances pass through verbatim).

    Unknown names raise :class:`~repro.errors.AnalysisError` listing
    the registered names.
    """
    if isinstance(name, TerminationMethod):
        return name
    cls = _METHODS.get(name)
    if cls is None:
        raise AnalysisError(
            "unknown termination method %r; choose from %s"
            % (name, ", ".join(available_methods()))
        )
    return cls()


def observed_analyze(method, program, root, mode, settings=None,
                     certificate_cache=None, request_id=None, state=None):
    """Run one method analysis under the standard obs instrumentation.

    Increments ``method.<name>.attempted`` before and
    ``method.<name>.decided`` after a conclusive (PROVED/DISPROVED)
    verdict, and feeds the wall-clock latency into the
    ``method.<name>.ms`` histogram.  The portfolio routes its
    sub-method attempts through here too, so the counters account for
    every attempt, not just top-level dispatches.
    """
    if METRICS.enabled:
        METRICS.counter("method.%s.attempted" % method.name).inc()
    started = perf_counter()
    result = method.analyze(
        program, root, mode, settings=settings,
        certificate_cache=certificate_cache, request_id=request_id,
        state=state,
    )
    if METRICS.enabled:
        METRICS.histogram("method.%s.ms" % method.name).observe(
            (perf_counter() - started) * 1000
        )
        if result.status in (PROVED, DISPROVED):
            METRICS.counter("method.%s.decided" % method.name).inc()
    return result


class MethodRunner:
    """Settings + certificate cache + resolved method, bound once.

    The drivers' dispatch point: construct one runner per
    (settings, cache) pair and call :meth:`analyze` per query.  The
    runner owns a scratch dict that methods thread their per-program
    state through — consecutive analyses of the *same program object*
    (the batch layer's chunking guarantees this for same-source items)
    reuse the underlying analyzer exactly as the pre-methods code did.
    """

    def __init__(self, settings=None, certificate_cache=None):
        from repro.core.analyzer import AnalyzerSettings

        self.settings = settings or AnalyzerSettings()
        self.method = get_method(getattr(self.settings, "method", "argsize"))
        self.certificate_cache = certificate_cache
        self._state = {}

    def analyze(self, program, root, mode, request_id=None):
        """Analyze one query through the bound method, instrumented."""
        return observed_analyze(
            self.method, program, tuple(root), str(mode),
            settings=self.settings,
            certificate_cache=self.certificate_cache,
            request_id=request_id, state=self._state,
        )


def run_method(program, root, mode, settings=None, certificate_cache=None,
               request_id=None):
    """One-shot convenience: resolve ``settings.method`` and analyze."""
    runner = MethodRunner(settings, certificate_cache=certificate_cache)
    return runner.analyze(program, root, mode, request_id=request_id)
