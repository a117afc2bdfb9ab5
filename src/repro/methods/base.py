"""The termination-method protocol and its instrumentation.

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
diverge on one.  The four provers (``argsize``, ``sizechange``,
``nonterm``, ``portfolio``) each document the guarantee they offer in
their own module; ``docs/METHODS.md`` has the comparison table.  The
fixed name → class table and the drivers' :class:`MethodRunner` live
in :mod:`repro.methods`.

:func:`observed_analyze` wraps every analysis in the
``method.<name>.attempted`` / ``method.<name>.decided`` counters and
the ``method.<name>.ms`` latency histogram.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs import METRICS
from repro.core.pipeline import DISPROVED, PROVED

__all__ = ["TerminationMethod", "observed_analyze"]


class TerminationMethod:
    """Abstract termination prover.

    Subclasses set :attr:`name` (the method-table key) and implement
    :meth:`analyze`.
    """

    name = "abstract"

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None):
        """Analyze termination of the *mode* query on *root*.

        Returns an :class:`~repro.core.pipeline.AnalysisResult` whose
        ``status`` is PROVED, DISPROVED, or UNKNOWN and whose
        ``method`` names this prover.
        """
        raise NotImplementedError


def observed_analyze(method, program, root, mode, settings=None,
                     certificate_cache=None, request_id=None):
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
    )
    if METRICS.enabled:
        METRICS.histogram("method.%s.ms" % method.name).observe(
            (perf_counter() - started) * 1000
        )
        if result.status in (PROVED, DISPROVED):
            METRICS.counter("method.%s.decided" % method.name).inc()
    return result
