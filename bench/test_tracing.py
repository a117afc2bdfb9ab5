"""The outside-in tracer, and BENCHMARK.json against the code."""

import json
import os

from bench import ROOT
from bench.run import END_TO_END, WORKLOAD_NAMES
from bench.tracing import CALLERS, PER_LAYER, TRACER_LAYER, LayerTracer


def _analyze(name, method="argsize"):
    from repro.batch import analyze_many
    from repro.core import AnalyzerSettings, clear_caches
    from repro.corpus import get_program

    clear_caches()
    return analyze_many([get_program(name)],
                        settings=AnalyzerSettings(method=method))


def test_traced_lp_counts_add_up_to_the_program_counter():
    tracer = LayerTracer().install()
    try:
        report = _analyze("perm")
        layers = tracer.report()
    finally:
        tracer.uninstall()
    assert report.results[0].status == "PROVED"
    assert set(layers) == {name for name, _, _ in TRACER_LAYER}
    solves = sum(layers["linalg.simplex.solves." + c] for c in CALLERS)
    assert solves == layers["linalg.simplex.solves.total"] > 0
    assert layers["linalg.simplex.solves.prune"] > 0
    assert layers["lp.parse.calls"] == 1
    assert layers["interarg.infer.calls"] == 1
    assert layers["methods.argsize.decided"] == 1
    assert layers["core.stage.interarg.ms"] > 0
    assert (layers["linalg.fm.eliminate_all_tracked.self_ms"]
            < layers["linalg.fm.eliminate_all_tracked.ms"])


def test_sizechange_lps_are_charged_to_sizechange():
    tracer = LayerTracer().install()
    try:
        _analyze("ackermann", method="sizechange")
        layers = tracer.report()
    finally:
        tracer.uninstall()
    assert layers["linalg.simplex.solves.sizechange"] > 0
    assert layers["linalg.simplex.solves.final"] == 0


def test_uninstall_restores_every_binding():
    import repro.core.pipeline as pipeline
    import repro.linalg.simplex as simplex
    from repro.linalg.polyhedron import Polyhedron
    from repro.obs import METRICS

    before = (simplex.solve_lp, pipeline.choose_thetas,
              Polyhedron.__dict__["is_empty"])
    tracer = LayerTracer().install()
    assert simplex.solve_lp is not before[0]
    assert pipeline.choose_thetas is not before[1]
    assert "merge_snapshot" in vars(METRICS)
    tracer.uninstall()
    assert (simplex.solve_lp, pipeline.choose_thetas,
            Polyhedron.__dict__["is_empty"]) == before
    assert "merge_snapshot" not in vars(METRICS)


def test_remerged_metric_deltas_are_not_counted_twice():
    from repro.obs import METRICS

    tracer = LayerTracer().install()
    try:
        _analyze("append_bbf")
        solves = METRICS.snapshot()["counters"]["simplex.solves"]
        METRICS.merge_snapshot({"counters": {"simplex.solves": 5}})
        layers = tracer.report()
    finally:
        tracer.uninstall()
    assert solves > 0
    assert layers["serve.metrics.remerged_solves"] == 5
    traced = sum(layers["linalg.simplex.solves." + c] for c in CALLERS)
    assert traced == layers["linalg.simplex.solves.total"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
