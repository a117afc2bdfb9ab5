"""Tests for the batch / parallel analysis layer."""

import pytest

from repro.batch import BatchItem, BatchReport, analyze_many, as_batch_item
from repro.errors import AnalysisError

APPEND = (
    "append([], Y, Y).\n"
    "append([X|Xs], Y, [X|Zs]) :- append(Xs, Y, Zs).\n"
)
LOOP = "p(X) :- p(X).\n"


class TestItemCoercion:
    def test_tuple(self):
        item = as_batch_item((APPEND, ("append", 3), "bbf"), 4)
        assert item.root == ("append", 3)
        assert item.name == "item4"

    def test_dict(self):
        item = as_batch_item(
            {"name": "ap", "source": APPEND,
             "root": ("append", 3), "mode": "bbf"}
        )
        assert item.name == "ap"

    def test_corpus_entry(self):
        from repro.corpus import get_program

        entry = get_program("perm")
        item = as_batch_item(entry)
        assert item.name == "perm"
        assert item.root == ("perm", 2)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_batch_item(42)


class TestSerialBatch:
    def test_verdicts_and_order(self):
        report = analyze_many(
            [
                (APPEND, ("append", 3), "bbf"),
                (LOOP, ("p", 1), "b"),
                (APPEND, ("append", 3), "ffb"),
            ]
        )
        assert [r.status for r in report.results] == [
            "PROVED", "UNKNOWN", "PROVED",
        ]
        assert not report.all_proved
        assert report.jobs == 1

    def test_error_item_reported_not_raised(self):
        report = analyze_many(
            [("p(X :- broken", ("p", 1), "b")]
        )
        result = report.results[0]
        assert result.status == "ERROR"
        assert result.error

    def test_reasons_surface_for_unknown(self):
        report = analyze_many([(LOOP, ("p", 1), "b")])
        assert report.results[0].reasons

    def test_merged_trace_counts_analyses(self):
        report = analyze_many(
            [
                (APPEND, ("append", 3), "bbf"),
                (APPEND, ("append", 3), "ffb"),
            ]
        )
        assert report.trace.stage("adorn").calls == 2

    def test_bad_jobs_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_many([(APPEND, ("append", 3), "bbf")], jobs=0)


class TestParallelMatchesSerial:
    def test_full_corpus_jobs4_matches_serial(self):
        """The acceptance check: 42 programs, 4 methods, identical
        verdicts at jobs=4, and the merged traces agree on every
        structural counter.  (Cache hit/miss totals legitimately
        differ — workers have their own memoization caches.)"""
        from repro.baselines import ALL_BASELINES
        from repro.corpus import all_programs

        entries = all_programs()
        assert len(entries) == 42
        serial = analyze_many(entries, jobs=1, baselines=ALL_BASELINES)
        parallel = analyze_many(entries, jobs=4, baselines=ALL_BASELINES)

        assert [
            (r.name, r.status, r.baselines) for r in serial.results
        ] == [
            (r.name, r.status, r.baselines) for r in parallel.results
        ]
        for stage in serial.trace.stages():
            twin = parallel.trace.stage(stage.stage)
            assert (
                stage.calls, stage.rows_in, stage.rows_out, stage.pivots,
            ) == (
                twin.calls, twin.rows_in, twin.rows_out, twin.pivots,
            ), stage.stage

    def test_single_program_modes_split_across_workers(self):
        """The --all-modes shape: one program, several modes, jobs=2."""
        items = [
            BatchItem("bbf", APPEND, ("append", 3), "bbf"),
            BatchItem("ffb", APPEND, ("append", 3), "ffb"),
            BatchItem("bff", APPEND, ("append", 3), "bff"),
        ]
        serial = analyze_many(items, jobs=1)
        parallel = analyze_many(items, jobs=2)
        assert [r.status for r in serial.results] == [
            r.status for r in parallel.results
        ]


class TestBatchTelemetry:
    def test_results_carry_worker_and_elapsed(self):
        report = analyze_many(
            [
                (APPEND, ("append", 3), "bbf"),
                (LOOP, ("p", 1), "b"),
            ],
            jobs=2,
        )
        workers = {r.worker for r in report.results}
        # Compact ids starting at 0, at most one per pool process.
        assert workers == set(range(len(workers)))
        assert len(workers) <= 2
        for result in report.results:
            assert result.elapsed_s == result.wall_time
            assert result.elapsed_s >= 0.0

    def test_serial_results_are_worker_zero(self):
        report = analyze_many([(APPEND, ("append", 3), "bbf")])
        assert report.results[0].worker == 0

    def test_report_metrics_cover_the_batch(self):
        from repro.obs import METRICS

        items = [
            (APPEND, ("append", 3), "bbf"),
            (APPEND, ("append", 3), "ffb"),
        ]
        previous = METRICS.set_enabled(True)
        try:
            report = analyze_many(items)
        finally:
            METRICS.set_enabled(previous)
        counters = report.metrics.get("counters", {})
        assert counters.get("simplex.pivots", 0) > 0

    def test_parallel_metrics_reach_the_parent(self):
        """Worker registries die with their processes; the merged
        snapshot and the parent registry must both see their counts."""
        from repro.obs import METRICS

        items = [
            (APPEND, ("append", 3), "bbf"),
            (LOOP, ("p", 1), "b"),
        ]
        previous = METRICS.set_enabled(True)
        before = METRICS.snapshot()
        try:
            report = analyze_many(items, jobs=2)
        finally:
            METRICS.set_enabled(previous)
        batch_pivots = report.metrics["counters"].get("simplex.pivots", 0)
        assert batch_pivots > 0
        parent_pivots = METRICS.snapshot()["counters"].get(
            "simplex.pivots", 0
        )
        assert parent_pivots >= (
            before["counters"].get("simplex.pivots", 0) + batch_pivots
        )

    def test_merged_trace_has_span_roots(self):
        # Two *distinct* items: identical ones are deduplicated and
        # solved once (see TestDedup).
        report = analyze_many(
            [(APPEND, ("append", 3), "bbf"),
             (APPEND, ("append", 3), "ffb")],
            jobs=2,
        )
        names = [root.name for root in report.trace.roots]
        assert names.count("analyze") == 2


class TestValidation:
    """Bad roots fail loudly instead of proving vacuously."""

    def test_undefined_root_is_a_clear_error(self):
        report = analyze_many([(APPEND, ("appendd", 3), "bbf")])
        result = report.results[0]
        assert result.status == "ERROR"
        assert "appendd/3" in result.error
        assert "append/3" in result.error  # names what IS defined

    def test_wrong_arity_names_the_right_one(self):
        report = analyze_many([(APPEND, ("append", 2), "bb")])
        result = report.results[0]
        assert result.status == "ERROR"
        assert "arity" in result.error

    def test_bad_mode_length(self):
        report = analyze_many([(APPEND, ("append", 3), "bb")])
        assert report.results[0].status == "ERROR"
        assert "3 positions" not in report.results[0].error  # msg says 2
        assert "needs 3" in report.results[0].error

    def test_bad_mode_characters(self):
        report = analyze_many([(APPEND, ("append", 3), "bxf")])
        assert report.results[0].status == "ERROR"
        assert "'b'" in report.results[0].error

    def test_parallel_path_reports_the_same_error(self):
        report = analyze_many(
            [(APPEND, ("appendd", 3), "bbf"),
             (APPEND, ("append", 3), "bbf")],
            jobs=2,
        )
        assert report.results[0].status == "ERROR"
        assert report.results[1].status == "PROVED"


class TestDedup:
    """Identical (source, root, mode) items are solved exactly once."""

    def test_every_requested_item_is_reported(self):
        report = analyze_many(
            [
                BatchItem("first", APPEND, ("append", 3), "bbf"),
                BatchItem("again", APPEND, ("append", 3), "bbf"),
                BatchItem("loop", LOOP, ("p", 1), "b"),
                BatchItem("thrice", APPEND, ("append", 3), "bbf"),
            ]
        )
        assert [r.name for r in report.results] == [
            "first", "again", "loop", "thrice",
        ]
        assert [r.status for r in report.results] == [
            "PROVED", "PROVED", "UNKNOWN", "PROVED",
        ]

    def test_duplicates_analyzed_once(self):
        report = analyze_many(
            [(APPEND, ("append", 3), "bbf")] * 5
        )
        # One adorn pass per *unique* analysis, not per requested item.
        assert report.trace.stage("adorn").calls == 1
        assert len(report.results) == 5

    def test_distinct_modes_not_conflated(self):
        report = analyze_many(
            [
                (APPEND, ("append", 3), "bbf"),
                (APPEND, ("append", 3), "ffb"),
            ]
        )
        assert report.trace.stage("adorn").calls == 2

    def test_parallel_dedup_matches_serial(self):
        items = [(APPEND, ("append", 3), "bbf")] * 4 + [
            (LOOP, ("p", 1), "b"),
            (APPEND, ("append", 3), "ffb"),
        ]
        serial = analyze_many(items, jobs=1)
        parallel = analyze_many(items, jobs=2)
        assert [r.status for r in serial.results] == [
            r.status for r in parallel.results
        ]

    def test_single_unique_item_skips_the_pool(self):
        # 5 requested, 1 unique: takes the in-process path even with
        # jobs=2 (nothing to parallelize).
        report = analyze_many(
            [(APPEND, ("append", 3), "bbf")] * 5, jobs=2
        )
        assert all(r.status == "PROVED" for r in report.results)


class TestChunking:
    def test_groups_by_source(self):
        from repro.batch import _make_chunks

        items = list(enumerate([
            BatchItem("a1", APPEND, ("append", 3), "bbf"),
            BatchItem("l1", LOOP, ("p", 1), "b"),
            BatchItem("a2", APPEND, ("append", 3), "ffb"),
        ]))
        chunks = _make_chunks(items, jobs=2)
        assert len(chunks) == 2
        assert [item.name for _, item in chunks[0]] == ["a1", "a2"]

    def test_splits_when_fewer_programs_than_workers(self):
        from repro.batch import _make_chunks

        items = list(enumerate([
            BatchItem(str(i), APPEND, ("append", 3), "bbf")
            for i in range(6)
        ]))
        chunks = _make_chunks(items, jobs=3)
        assert len(chunks) >= 3
        flattened = [index for chunk in chunks for index, _ in chunk]
        assert sorted(flattened) == list(range(6))
