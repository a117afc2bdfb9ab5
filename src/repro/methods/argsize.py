"""The paper's argument-size analysis as a termination method.

A thin adapter over :class:`~repro.core.pipeline.AnalysisPipeline` —
the Sohn & Van Gelder pipeline becomes one prover among several,
with no behaviour change: verdicts, certificates, traces, and
certificate-cache interaction are exactly those of the pipeline (the
identity is pinned by tests against the 42-program corpus).  Each
query builds its own pipeline; a program analyzed again recalls its
inter-argument environment from the process-wide cache.

Guarantee: ``PROVED`` comes with a verifiable lambda certificate;
``UNKNOWN`` never means "diverges"; ``DISPROVED`` is never emitted.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.pipeline import AnalysisPipeline, AnalyzerSettings
from repro.methods.base import TerminationMethod


class ArgSizeMethod(TerminationMethod):
    """Linear argument-size ranking via LP duality (the paper)."""

    name = "argsize"

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None):
        # Normalize so certificate fingerprints stay honest when the
        # portfolio delegates here: the same argument-size proof gets
        # the same cache key either way.
        settings = replace(settings or AnalyzerSettings(), method=self.name)
        result = AnalysisPipeline(
            program, settings, certificate_cache=certificate_cache
        ).analyze(tuple(root), mode, request_id=request_id)
        result.method = self.name
        return result
