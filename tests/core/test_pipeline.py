"""The staged pipeline: traces, memoization, eager validation, and
norm threading."""

import pytest

from repro.errors import AnalysisError
from repro.lp import parse_program
from repro.core import (
    STAGES,
    AnalysisPipeline,
    AnalysisTrace,
    AnalyzerSettings,
    TerminationAnalyzer,
    analyze_program,
    clear_caches,
)

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


class TestTraces:
    def test_every_result_carries_a_trace(self):
        result = analyze_program(PERM, ("perm", 2), "bf")
        assert result.trace is not None
        ran = [s.stage for s in result.trace.stages()]
        # The fingerprint stage only runs when a certificate cache is
        # installed; everything else runs in pipeline order.
        assert ran == [s for s in STAGES if s != "fingerprint"]

    def test_a_certificate_cache_adds_the_fingerprint_stage(self):
        from repro.core import MemoryCertificateCache

        result = TerminationAnalyzer(
            parse_program(PERM),
            certificate_cache=MemoryCertificateCache(),
        ).analyze(("perm", 2), "bf")
        ran = [s.stage for s in result.trace.stages()]
        assert ran == list(STAGES)  # every stage ran, in pipeline order

    def test_stage_counters_populated(self):
        result = analyze_program(PERM, ("perm", 2), "bf")
        trace = result.trace
        assert trace.stage("adorn").calls == 1
        assert trace.stage("interarg").cache_misses == 1
        # perm reaches 3 recursive SCCs (perm^bf, append^bbf, append^ffb).
        assert trace.stage("solve").calls == 3
        assert trace.stage("solve").rows_in > 0
        assert trace.stage("solve").pivots > 0  # default simplex backend
        assert trace.stage("dualize").rows_out > 0
        assert trace.total_time > 0

    def test_failed_analysis_still_traced(self):
        result = analyze_program("p(X) :- p(X).", ("p", 1), "b")
        assert not result.proved
        assert result.trace.stage("solve").calls == 1

    def test_merge_accumulates(self):
        first = analyze_program(PERM, ("perm", 2), "bf").trace
        second = analyze_program(PERM, ("perm", 2), "bf").trace
        merged = AnalysisTrace().merge(first).merge(second)
        assert merged.stage("adorn").calls == 2
        assert merged.total_time >= first.total_time

    def test_describe_lists_stages_and_totals(self):
        trace = analyze_program(PERM, ("perm", 2), "bf").trace
        text = trace.describe()
        for name in STAGES:
            if name == "fingerprint":
                continue  # only runs with a certificate cache
            assert name in text
        assert "total" in text
        assert "cache h/m" in text


class TestEnvironmentCache:
    def test_second_mode_reuses_environment(self):
        program = parse_program(PERM)
        analyzer = TerminationAnalyzer(program)
        first = analyzer.analyze(("perm", 2), "bf")
        second = analyzer.analyze(("append", 3), "bbf")
        assert first.trace.stage("interarg").cache_misses == 1
        assert second.trace.stage("interarg").cache_hits == 1
        assert second.trace.stage("interarg").cache_misses == 0
        assert first.environment is second.environment

    def test_fresh_analyzer_hits_process_cache(self):
        program = parse_program(PERM)
        TerminationAnalyzer(program).analyze(("perm", 2), "bf")
        rerun = TerminationAnalyzer(program).analyze(("perm", 2), "bf")
        assert rerun.trace.stage("interarg").cache_hits == 1

    def test_reparsed_program_hits_process_cache(self):
        analyze_program(PERM, ("perm", 2), "bf")
        rerun = analyze_program(parse_program(PERM), ("perm", 2), "bf")
        assert rerun.trace.stage("interarg").cache_hits == 1

    def test_norm_isolates_cache_entries(self):
        analyze_program(PERM, ("perm", 2), "bf")
        other = analyze_program(
            PERM, ("perm", 2), "bf",
            settings=AnalyzerSettings(norm="list_length"),
        )
        assert other.trace.stage("interarg").cache_misses == 1

    def test_external_constraints_bypass_cache(self):
        from repro.interarg import SizeEnvironment

        program = parse_program(PERM)
        analyzer = TerminationAnalyzer(program)
        env = SizeEnvironment()
        analyzer.use_external_constraints(env)
        assert analyzer.environment is env


class TestEagerValidation:
    def test_unknown_norm_fails_at_construction_same_shape(self):
        program = parse_program(PERM)
        with pytest.raises(AnalysisError) as info:
            TerminationAnalyzer(
                program, settings=AnalyzerSettings(norm="weight")
            )
        assert "weight" in str(info.value)

    def test_settings_validate_directly(self):
        assert AnalyzerSettings().validate().name == "structural"
        with pytest.raises(AnalysisError):
            AnalyzerSettings(norm="weight").validate()

    def test_non_program_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisPipeline(["not", "a", "program"], AnalyzerSettings())


class TestNormThreading:
    def test_result_records_actual_norm(self):
        result = analyze_program(
            "p([_|T]) :- p(T).\np([]).", ("p", 1), "b",
            settings=AnalyzerSettings(norm="list_length"),
        )
        assert result.norm == "list_length"
        assert result.proof.norm == "list_length"

    def test_trivially_nonrecursive_proof_keeps_norm(self):
        # The old AnalysisResult.proof scanned SCC proofs and fell back
        # to "structural"; a program whose only SCCs are non-recursive
        # must still report the configured norm.
        result = analyze_program(
            "p(X) :- q(X).\nq(a).", ("p", 1), "b",
            settings=AnalyzerSettings(norm="right_spine"),
        )
        assert result.proved
        assert result.proof.norm == "right_spine"


class TestPipelineDirectly:
    def test_pipeline_is_reusable_across_modes(self):
        pipeline = AnalysisPipeline(parse_program(PERM), AnalyzerSettings())
        forward = pipeline.analyze(("append", 3), "bbf")
        backward = pipeline.analyze(("append", 3), "ffb")
        assert forward.proved and backward.proved

    def test_termination_analyzer_is_the_pipeline(self):
        import repro
        import repro.core.pipeline

        assert repro.TerminationAnalyzer is repro.core.pipeline.AnalysisPipeline

    def test_analyze_scc_accepts_shared_trace(self):
        from repro.core.adornment import AdornedPredicate

        pipeline = AnalysisPipeline(parse_program(PERM), AnalyzerSettings())
        trace = AnalysisTrace()
        node = AdornedPredicate(("append", 3), "bbf")
        result = pipeline.analyze_scc((node,), trace=trace)
        assert result.proved
        assert trace.stage("solve").calls == 1
