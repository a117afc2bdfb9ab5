"""Kernel selection through the analyzer: settings and
kernel-independent certificate fingerprints.

``fm_kernel="reference"`` is the differential oracle of the default
``"int"`` row kernel — every verdict, certificate, and stage count
must match.  Certificates are keyed without the kernel, so a cache
warmed under one kernel serves the other.
"""

import pytest

from repro.errors import AnalysisError
from repro.lp import parse_program
from repro.core import (
    AnalyzerSettings,
    MemoryCertificateCache,
    TerminationAnalyzer,
    clear_caches,
)
from repro.core.pipeline import resolve_settings

PERM = """
perm([], []).
perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
"""


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _analyze(kernel, **kwargs):
    return TerminationAnalyzer(
        parse_program(PERM),
        AnalyzerSettings(fm_kernel=kernel, **kwargs),
    ).analyze(("perm", 2), "bf")


def _certificate_view(result):
    return [
        (
            tuple(str(m) for m in scc.members),
            scc.status,
            scc.reason,
            None if scc.proof is None
            else (repr(scc.proof.lambdas), repr(scc.proof.thetas)),
        )
        for scc in result.scc_results
    ]


class TestSettings:
    def test_array_kernel_rejected(self):
        """The numpy ``array`` kernel is gone; naming it is the same
        error as any unknown kernel."""
        with pytest.raises(AnalysisError, match="unknown fm_kernel 'array'"):
            resolve_settings(AnalyzerSettings(fm_kernel="array"))

    def test_unknown_kernel_rejected_eagerly(self):
        with pytest.raises(AnalysisError, match="unknown fm_kernel"):
            TerminationAnalyzer(
                parse_program(PERM), AnalyzerSettings(fm_kernel="simd")
            )


class TestKernelEquivalence:
    @pytest.mark.parametrize("feasibility", ["simplex", "fm"])
    def test_reference_matches_int(self, feasibility):
        from_int = _analyze("int", feasibility=feasibility)
        clear_caches()
        from_reference = _analyze("reference", feasibility=feasibility)
        assert from_reference.status == from_int.status
        assert (_certificate_view(from_reference)
                == _certificate_view(from_int))

    def test_stage_totals_match(self):
        """The kernel must not change what the stages did: same calls,
        same rows, same pivot totals."""
        structural = ("calls", "rows_in", "rows_out", "pivots",
                      "eliminations")
        from_int = _analyze("int")
        clear_caches()
        from_reference = _analyze("reference")
        for name in ("rule_systems", "dualize", "theta", "solve",
                     "certify"):
            got = from_reference.trace.stage(name)
            want = from_int.trace.stage(name)
            for field in structural:
                assert getattr(got, field) == getattr(want, field), (
                    name, field)


class TestFingerprintKernelIndependence:
    def test_certificates_shared_across_kernels(self):
        """The certificate fingerprint excludes ``fm_kernel`` by
        design — byte-identical kernels may share certificates.  A
        cache warmed under "int" must serve the "reference" run."""
        cache = MemoryCertificateCache()
        program = parse_program(PERM)
        warm = TerminationAnalyzer(
            program, AnalyzerSettings(fm_kernel="int"),
            certificate_cache=cache,
        ).analyze(("perm", 2), "bf")
        assert warm.proved
        clear_caches()
        reuse = TerminationAnalyzer(
            program, AnalyzerSettings(fm_kernel="reference"),
            certificate_cache=cache,
        ).analyze(("perm", 2), "bf")
        assert reuse.proved
        assert reuse.trace.stage("fingerprint").cache_hits > 0
        assert reuse.trace.stage("solve").calls == 0
