"""Seeded input generators and the output oracle."""

import socket
import threading
from collections import Counter

import pytest

from bench import inputs
from bench.serve import Outcome, _rows, post, tier_metrics


def test_library_jobs_are_a_function_of_the_seed():
    for workload in inputs.LIBRARY_WORKLOADS:
        assert inputs.library_jobs(workload, 7) == inputs.library_jobs(
            workload, 7)
        first = [job.name for job in inputs.library_jobs(workload, 1)]
        second = [job.name for job in inputs.library_jobs(workload, 2)]
        assert first != second
        assert sorted(first) == sorted(second)


def test_library_workload_sizes():
    assert len(inputs.library_jobs("corpus-cold", 0)) == 42
    assert len(inputs.library_jobs("portfolio-hard", 0)) == 11
    assert len(inputs.library_jobs("scaling", 0)) == 10


def test_portfolio_oracle_is_ground_truth():
    jobs = {job.name: job for job in inputs.library_jobs("portfolio-hard", 0)}
    assert inputs.check_job(jobs["loop_growing"], "DISPROVED") is None
    assert inputs.check_job(jobs["loop_growing"], "PROVED") == "wrong_verdict"
    assert inputs.check_job(jobs["ackermann"], "PROVED") is None
    assert inputs.check_job(jobs["ackermann"], "DISPROVED") == "wrong_verdict"
    assert inputs.check_job(jobs["seesaw"], "ERROR") == "exception"


def test_scaling_instances_must_be_proved():
    job = inputs.scaling_job("ring", 8)
    assert inputs.check_job(job, "PROVED") is None
    assert inputs.check_job(job, "UNKNOWN") == "wrong_verdict"


def test_serve_requests_are_a_function_of_the_seed():
    first = inputs.serve_requests(3)
    assert [(r.kind, r.program, r.body) for r in first] == [
        (r.kind, r.program, r.body) for r in inputs.serve_requests(3)]
    assert [r.program for r in first] != [
        r.program for r in inputs.serve_requests(4)]


def test_serve_mix_composition():
    requests = inputs.serve_requests(5)
    kinds = Counter(request.kind for request in requests)
    assert len(requests) == inputs.SERVE_REQUESTS
    assert kinds["edit"] == inputs.SERVE_EDITS
    assert kinds["hostile"] == inputs.SERVE_HOSTILE
    programs = {entry.name for entry in inputs.serve_programs()}
    assert len(programs) == 33
    assert programs.isdisjoint(inputs.SERVE_EXCLUDED)
    unedited = {r.program for r in requests if r.kind == "unedited"}
    assert unedited == programs
    edits = [r.body["source"] for r in requests if r.kind == "edit"]
    assert len(set(edits)) == len(edits)
    assert all(r.body["incremental"] for r in requests if r.kind == "edit")
    assert all(r.expect_status == 400 for r in requests
               if r.kind == "hostile")


def test_zipf_counts():
    counts = inputs.zipf_counts(33, 607)
    assert sum(counts) == 607
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == round(607 / sum(1 / r for r in range(1, 34)))
    assert inputs.zipf_counts(3, 0) == [0, 0, 0]


def test_every_seed_sends_the_same_mix():
    def mix(seed):
        return Counter((r.kind, r.program) for r in inputs.serve_requests(seed))

    assert mix(1) == mix(2)
    ranked = [entry.name for entry in inputs.serve_programs()]
    assert mix(1)[("unedited", ranked[0])] > mix(1)[("unedited", ranked[-1])]


def _request(verdict="PROVED", status=200):
    return inputs.Request("unedited", "append_bbf", {}, status, verdict)


def test_classify_response():
    good = b'{"status": "PROVED"}'
    assert inputs.classify_response(_request(), 200, good) is None
    assert inputs.classify_response(_request(), None, b"") == "dropped"
    assert inputs.classify_response(_request(), 500, b"{}") == (
        "unexpected_status")
    assert inputs.classify_response(
        _request(), 200, b'{"status": "UNKNOWN"}') == "wrong_verdict"
    assert inputs.classify_response(_request(), 200, b"not json") == (
        "wrong_verdict")
    assert inputs.classify_response(
        _request(), 200, good, first_body=good + b" ") == "repeat_differs"
    hostile = _request(verdict=None, status=400)
    assert inputs.classify_response(hostile, 400, b"{}") is None
    assert inputs.classify_response(hostile, 200, good) == (
        "unexpected_status")


def _one_shot_server(reply):
    """A localhost server that reads one request, sends *reply* (maybe
    nothing) and closes; returns its port."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        connection, _ = listener.accept()
        with connection:
            connection.recv(65536)
            if reply:
                connection.sendall(reply)
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def test_dropped_connection_is_classified_as_dropped():
    port, thread = _one_shot_server(b"")
    outcome = post(port, b'{"source": "p."}', timeout=10)
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert outcome.status is None and outcome.error == "dropped"
    assert inputs.classify_response(_request(), outcome.status,
                                    outcome.body) == "dropped"


def test_error_status_from_the_wire():
    port, thread = _one_shot_server(
        b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 2\r\n"
        b"Connection: close\r\n\r\n{}")
    outcome = post(port, b"{}", timeout=10)
    thread.join(timeout=10)
    assert outcome.status == 500
    assert inputs.classify_response(_request(), outcome.status,
                                    outcome.body) == "unexpected_status"


def test_rows_and_tiers():
    requests = [
        _request(),
        _request(),
        inputs.Request("hostile", "syntax", {}, 400),
        inputs.Request("edit", "append_bbf", {}, 200, "PROVED"),
    ]
    body = b'{"status": "PROVED"}'
    outcomes = [
        Outcome(200, body, "miss", 0.0, 0.1),
        Outcome(200, body + b" ", "hit", 0.1, 0.102),
        Outcome(None, start=0.102, end=0.103, error="dropped"),
        None,
    ]
    rows, decided = _rows(requests, outcomes)
    assert [row["error"] for row in rows] == [
        None, "repeat_differs", "dropped", "not_sent"]
    assert decided == 1
    tiers = tier_metrics(rows, [100.0, 2.0, 1.0, 0.0])
    assert tiers["cold_requests"] == 1 and tiers["hit_requests"] == 1
    assert tiers["edit_requests"] == 0
    assert tiers["cold_ms_geomean"] == pytest.approx(100.0)
    assert tiers["hit_ms_p50"] == pytest.approx(2.0)
