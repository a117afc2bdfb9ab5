"""Full-corpus differential: warm incremental runs are byte-identical.

The acceptance gate for the per-SCC certificate cache: across the
whole 42-program corpus and every settings variant that changes the
solving route, re-analyzing a program with a warm cache must produce
the *byte-identical* wire payload the cold run produced, while every
recursive SCC's certificate comes from the cache (nothing re-proved,
nothing rejected).

The cache is shared across the corpus within one variant — identical
sub-SCCs in different programs (the corpus reuses append/leq/perm
building blocks) legitimately hit each other's certificates already in
the cold pass; the warm pass must then reuse everything.  Each variant
gets its own cache: fingerprints deliberately include the settings
digest, so certificates never leak between solving routes.
"""

import pytest

from repro.core import (
    AnalyzerSettings,
    MemoryCertificateCache,
    TerminationAnalyzer,
    clear_caches,
)
from repro.corpus import all_programs
from repro.lp import parse_program
from repro.serve.protocol import payload_from_result, payload_text

VARIANTS = {
    "default": AnalyzerSettings(),
    "no-eliminate-w": AnalyzerSettings(eliminate_w=False),
    "negative-theta": AnalyzerSettings(allow_negative_theta=True),
}


def _sweep(settings, cache):
    """Analyze the whole corpus; return ({name: payload_bytes},
    total reused, total reproved, total rejected)."""
    payloads = {}
    reused = reproved = rejected = 0
    for entry in all_programs():
        clear_caches()
        program = parse_program(entry.source)
        result = TerminationAnalyzer(
            program, settings, certificate_cache=cache
        ).analyze(entry.root, entry.mode)
        payloads[entry.name] = payload_text(payload_from_result(result))
        reused += result.sccs_reused
        reproved += result.sccs_reproved
        rejected += result.sccs_rejected
    return payloads, reused, reproved, rejected


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_warm_corpus_sweep_is_byte_identical(variant):
    entries = all_programs()
    assert len(entries) == 42

    settings = VARIANTS[variant]
    cache = MemoryCertificateCache(limit=65536)
    cold_payloads, _, cold_reproved, _ = _sweep(settings, cache)
    assert cold_reproved > 0  # the cold pass actually proved things

    warm_payloads, reused, reproved, rejected = _sweep(settings, cache)
    assert warm_payloads == cold_payloads
    assert reused > 0
    assert reproved == 0
    assert rejected == 0
