"""The paper's primary contribution: the termination analyzer.

Pipeline (Sections 3–6 of the paper):

1. :mod:`repro.core.adornment` — infer a single bound/free adornment
   per predicate from the query mode.
2. :mod:`repro.core.rule_system` — for each rule and each recursive
   subgoal, assemble Eq. 1: head/subgoal argument-size polynomials and
   imported inter-argument constraints from preceding subgoals.
3. :mod:`repro.core.dual` — turn the universally quantified decrease
   requirement Eq. 2 into linear constraints on the lambda multipliers
   via LP duality (Eqs. 5–9), eliminating the dual variables with
   Fourier–Motzkin.
4. :mod:`repro.core.theta` — choose the theta offsets for mutual
   recursion and reject zero-weight cycles via min-plus closure
   (Section 6.1); Appendix C negative-weight search as an option.
5. :mod:`repro.core.pipeline` — the analyzer (``AnalysisPipeline``,
   also exported as ``TerminationAnalyzer``) and its settings: named
   stages (adorn, interarg, rule_systems, dualize, theta, solve,
   certify) with per-stage traces and memoization, returning
   :class:`~repro.core.certificate.TerminationProof` certificates;
   final feasibility is decided by the exact simplex of
   :mod:`repro.solve`.
6. :mod:`repro.core.analyzer` — query validation and the one-call
   :func:`~repro.core.analyzer.analyze_program` entry point.
7. :mod:`repro.core.verifier` — independently re-check certificates by
   solving the *primal* LP Eq. 4 with the exact simplex, and replay the
   loop witnesses behind DISPROVED verdicts.
"""

from repro.core.adornment import (
    Adornment,
    AdornedPredicate,
    adorned_call_graph,
    infer_adornments,
)
from repro.core.analyzer import (
    DISPROVED,
    PROVED,
    UNKNOWN,
    AnalysisResult,
    AnalyzerSettings,
    SCCResult,
    TerminationAnalyzer,
    analyze_program,
    validate_query,
)
from repro.core.pipeline import (
    STAGES,
    AnalysisPipeline,
    AnalysisTrace,
    StageTrace,
    clear_caches,
)
from repro.core.capture import CapturePlan, plan_capture_rules
from repro.core.certcache import MemoryCertificateCache
from repro.core.certificate import (
    LoopWitness,
    SCCProof,
    TerminationProof,
)
from repro.core.fingerprint import (
    canonical_polyhedron,
    env_scc_fingerprint,
    scc_certificate_fingerprint,
)
from repro.core.verifier import VerificationError, verify_loop, verify_proof
from repro.core.wellmoded import ModeReport, check_well_moded

__all__ = [
    "DISPROVED",
    "PROVED",
    "UNKNOWN",
    "Adornment",
    "AdornedPredicate",
    "adorned_call_graph",
    "infer_adornments",
    "AnalysisResult",
    "AnalyzerSettings",
    "SCCResult",
    "TerminationAnalyzer",
    "analyze_program",
    "validate_query",
    "STAGES",
    "AnalysisPipeline",
    "AnalysisTrace",
    "StageTrace",
    "clear_caches",
    "MemoryCertificateCache",
    "canonical_polyhedron",
    "env_scc_fingerprint",
    "scc_certificate_fingerprint",
    "SCCProof",
    "TerminationProof",
    "LoopWitness",
    "VerificationError",
    "verify_loop",
    "verify_proof",
    "CapturePlan",
    "plan_capture_rules",
    "ModeReport",
    "check_well_moded",
]
