"""Integration tests: the daemon end to end on an ephemeral port.

Each test boots a real :class:`~repro.serve.app.ServeApp` on a
background-thread event loop and talks to it through the thin
:class:`~repro.serve.client.ServeClient` — the same wire path
``repro-analyze --remote`` takes.
"""

import asyncio
import concurrent.futures
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.batch import as_batch_item
from repro.core import TerminationAnalyzer
from repro.corpus import all_programs
from repro.errors import PrologSyntaxError, ServeError
from repro.lp import parse_program
from repro.lp.parser import MAX_TERM_DEPTH
from repro.obs import METRICS
from repro.obs.sinks import read_trace
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.serve.pool import SolverPool, solve_wire
from repro.serve.protocol import payload_from_result, payload_text
from repro.serve.store import ResultStore

APPEND = (
    "append([], Y, Y).\n"
    "append([X|Xs], Y, [X|Zs]) :- append(Xs, Y, Zs).\n"
)


class SlowPool(SolverPool):
    """A serial pool that stalls before solving — makes 'in flight'
    a state the tests can hold open long enough to observe."""

    def __init__(self, delay=0.4):
        super().__init__(jobs=1)
        self.delay = delay

    def submit(self, wire, timeout=None, cache_dir=None,
               request_id=None, program=None):
        def stalled():
            time.sleep(self.delay)
            return solve_wire(wire, timeout, cache_dir, request_id,
                              program)

        return self._serial.submit(stalled)


@contextmanager
def running_app(store, pool, **app_kwargs):
    """Boot *store*/*pool* behind a live listener; yield (app, client)."""
    app = ServeApp(store, pool, **app_kwargs)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(app.start(port=0), loop).result(10)
    try:
        yield app, ServeClient("127.0.0.1:%d" % app.port)
    finally:
        asyncio.run_coroutine_threadsafe(app.shutdown(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@contextmanager
def serve(tmp_path, *, jobs=1, pool=None, **app_kwargs):
    with ResultStore(str(tmp_path / "cache")) as store:
        with running_app(
            store, pool or SolverPool(jobs=jobs), **app_kwargs
        ) as (app, client):
            yield app, client


def local_payload_text(source, root, mode):
    """What serial in-process analysis would answer, canonically."""
    result = TerminationAnalyzer(parse_program(source)).analyze(
        root, mode
    )
    return payload_text(payload_from_result(result))


class TestEndpoints:
    def test_health(self, tmp_path):
        with serve(tmp_path) as (app, client):
            health = client.health()
            assert health["status"] == "ok"
            assert health["store"]["entries"] == 0
            assert health["pool"]["lane"] == "serial"

    def test_analyze_matches_serial_byte_for_byte(self, tmp_path):
        with serve(tmp_path) as (app, client):
            answer = client.analyze(APPEND, ("append", 3), "bbf")
            assert answer.proved
            assert not answer.cached
            assert answer.text == local_payload_text(
                APPEND, ("append", 3), "bbf"
            )

    def test_metrics_snapshot_shape(self, tmp_path):
        with serve(tmp_path) as (app, client):
            client.analyze(APPEND, ("append", 3), "bbf")
            snapshot = client.metrics()
            assert "counters" in snapshot

    def test_serial_lane_counts_each_solve_once(self, tmp_path):
        """On the in-process lane the solve already counted into the
        server's registry; /v1/metrics must not add its delta again."""
        def solves():
            return METRICS.snapshot()["counters"].get("simplex.solves", 0)

        previous = METRICS.set_enabled(True)
        try:
            with serve(tmp_path, jobs=1) as (app, client):
                before = solves()
                answer = client.analyze(APPEND, ("append", 3), "bbf")
                served = client.metrics()["counters"]["simplex.solves"]
                trace = tmp_path / "trace.jsonl"
                trace.write_text(client.trace(answer.key))
                _, _, delta = read_trace(str(trace))
        finally:
            METRICS.set_enabled(previous)
        recorded = delta["counters"]["simplex.solves"]
        assert recorded > 0
        assert served - before == recorded

    def test_trace_for_solved_request(self, tmp_path):
        with serve(tmp_path) as (app, client):
            answer = client.analyze(APPEND, ("append", 3), "bbf")
            lines = client.trace(answer.key).splitlines()
            meta = json.loads(lines[0])
            assert meta["event"] == "meta"
            assert meta["schema"] == "repro.trace/1"
            assert meta["request"] == answer.key
            names = {
                json.loads(line)["name"] for line in lines[1:]
                if json.loads(line)["event"] == "span"
            }
            assert "serve.request" in names

    def test_trace_missing_is_404(self, tmp_path):
        with serve(tmp_path) as (app, client):
            with pytest.raises(ServeError) as excinfo:
                client.trace("no-such-key")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, tmp_path):
        with serve(tmp_path) as (app, client):
            with pytest.raises(ServeError) as excinfo:
                client._get_json("/v2/nothing")
            assert excinfo.value.status == 404

    def test_bad_json_is_400(self, tmp_path):
        with serve(tmp_path) as (app, client):
            status, _, _ = client._request(
                "POST", "/v1/analyze", b"not json"
            )
            assert status == 400

    def test_removed_fm_kernel_setting_is_400(self, tmp_path):
        body = {"source": APPEND, "root": "append/3", "mode": "bbf",
                "settings": {"fm_kernel": "int"}}
        with serve(tmp_path) as (app, client):
            status, _, text = client._request(
                "POST", "/v1/analyze", json.dumps(body).encode()
            )
        assert status == 400
        assert "unknown setting(s): fm_kernel" in text

    def test_removed_lambda_solver_settings_are_400(self, tmp_path):
        with serve(tmp_path) as (app, client):
            for knob, value in (("feasibility", "fm"), ("prune_fm", False)):
                body = {"source": APPEND, "root": "append/3",
                        "mode": "bbf", "settings": {knob: value}}
                status, _, text = client._request(
                    "POST", "/v1/analyze", json.dumps(body).encode()
                )
                assert status == 400
                assert "unknown setting(s): %s" % knob in text

    def test_non_boolean_switches_are_400(self, tmp_path):
        base = {"source": APPEND, "root": "append/3", "mode": "bbf"}
        with serve(tmp_path) as (app, client):
            for knob, body in (
                ("allow_negative_theta",
                 dict(base, settings={"allow_negative_theta": "false"})),
                ("use_interarg", dict(base, settings={"use_interarg": 0})),
                ("eliminate_w",
                 dict(base, settings={"eliminate_w": "true"})),
                ("incremental", dict(base, incremental="false")),
            ):
                status, _, text = client._request(
                    "POST", "/v1/analyze", json.dumps(body).encode()
                )
                assert status == 400, (knob, text)
                assert knob in text and "boolean" in text

    def test_a_store_miss_parses_once(self, tmp_path):
        from unittest import mock

        import repro.serve.protocol as protocol

        real = protocol.parse_program
        calls = []

        def counting(text):
            calls.append(text)
            return real(text)

        with mock.patch.object(protocol, "parse_program", counting):
            with serve(tmp_path) as (app, client):
                client.analyze(APPEND, ("append", 3), "bbf")
        assert len(calls) == 1

    def test_store_hit_skips_the_parse(self, tmp_path):
        from unittest import mock

        from repro.serve.protocol import AnalyzeRequest

        real = AnalyzeRequest.parse
        calls = []

        def counting(request):
            calls.append(request.root)
            return real(request)

        with mock.patch.object(AnalyzeRequest, "parse", counting):
            with serve(tmp_path) as (app, client):
                fresh = client.analyze(APPEND, ("append", 3), "bbf")
                parsed = len(calls)
                again = client.analyze(APPEND, ("append", 3), "bbf")
                assert len(calls) == parsed
                with pytest.raises(ServeError) as excinfo:
                    client.analyze(APPEND, ("appendd", 3), "bbf")
        assert parsed >= 1
        assert again.cached and again.payload == fresh.payload
        assert excinfo.value.status == 400
        assert len(calls) == parsed + 1

    def test_undefined_root_is_400_with_message(self, tmp_path):
        with serve(tmp_path) as (app, client):
            with pytest.raises(ServeError) as excinfo:
                client.analyze(APPEND, ("appendd", 3), "bbf")
            assert excinfo.value.status == 400
            assert "appendd/3" in str(excinfo.value)


def deep_request(shape, depth, method="argsize"):
    """A request whose fact ``p(T)`` is a term *depth* deep (``T`` is
    one level less): nested ``f(...)`` or a list of atoms.  The other
    clauses make ``p`` recursive, so every stage of every method runs
    over the deep term."""
    inner = depth - 1
    term = ("f(" * inner + "a" + ")" * inner if shape == "nested"
            else "[" + ",".join(["a"] * inner) + "]")
    return {
        "source": "p(%s).\np([X|Xs]) :- p(Xs).\np(f(X)) :- p(X).\n" % term,
        "root": "p/1", "mode": "b", "settings": {"method": method},
    }


class TestHostileNesting:
    @pytest.mark.parametrize("shape", ["nested", "list"])
    @pytest.mark.parametrize(
        "method", ["argsize", "sizechange", "nonterm", "portfolio"]
    )
    def test_term_at_the_cap_analyzes(self, shape, method):
        payload = solve_wire(deep_request(shape, MAX_TERM_DEPTH, method))[0]
        assert payload["status"] == (
            "UNKNOWN" if method == "nonterm" else "PROVED"
        )

    @pytest.mark.parametrize("shape", ["nested", "list"])
    def test_one_above_the_cap_is_a_syntax_error(self, shape):
        with pytest.raises(PrologSyntaxError, match="nested deeper"):
            solve_wire(deep_request(shape, MAX_TERM_DEPTH + 1))

    def test_endpoint_answers_400_and_keeps_serving(self, tmp_path):
        with serve(tmp_path) as (app, client):
            for shape in ("nested", "list"):
                body = deep_request(shape, MAX_TERM_DEPTH + 1)
                status, _, text = client._request(
                    "POST", "/v1/analyze", json.dumps(body).encode()
                )
                assert status == 400
                assert "nested deeper" in text
            assert client.analyze(APPEND, ("append", 3), "bbf").proved

    def test_terms_grown_by_prefixes_are_answered(self, tmp_path):
        # Shallow source, but prefix facts grow a term without bound:
        # nonterm drops what outgrows its node limit and answers.
        from tests.methods.test_loop_witness import (
            doubling_chain,
            successor_chain,
        )

        with serve(tmp_path) as (app, client):
            for source in (successor_chain(20, 20), doubling_chain(16)):
                body = {"source": source, "root": "h/1", "mode": "b",
                        "settings": {"method": "nonterm"}}
                status, _, text = client._request(
                    "POST", "/v1/analyze", json.dumps(body).encode()
                )
                assert status == 200, text
                assert json.loads(text)["status"] == "UNKNOWN"


class TestStoreIntegration:
    def test_second_identical_request_is_a_warm_hit(self, tmp_path):
        with serve(tmp_path) as (app, client):
            cold = client.analyze(APPEND, ("append", 3), "bbf")
            warm = client.analyze(APPEND, ("append", 3), "bbf")
            assert not cold.cached and warm.cached
            assert warm.text == cold.text  # byte-identical
            assert warm.key == cold.key

    def test_hit_survives_a_server_restart(self, tmp_path):
        store_dir = tmp_path / "cache"
        with ResultStore(str(store_dir)) as store:
            with running_app(store, SolverPool()) as (app, client):
                cold = client.analyze(APPEND, ("append", 3), "bbf")
        with ResultStore(str(store_dir)) as store:
            with running_app(store, SolverPool()) as (app, client):
                warm = client.analyze(APPEND, ("append", 3), "bbf")
        assert warm.cached
        assert warm.text == cold.text

    def test_layout_variant_hits_the_same_entry(self, tmp_path):
        with serve(tmp_path) as (app, client):
            cold = client.analyze(APPEND, ("append", 3), "bbf")
            warm = client.analyze(
                APPEND.replace("\n", "\r\n") + "\n\n",
                ("append", 3), "bbf",
            )
            assert warm.cached
            assert warm.key == cold.key

    def test_distinct_modes_are_distinct_entries(self, tmp_path):
        with serve(tmp_path) as (app, client):
            first = client.analyze(APPEND, ("append", 3), "bbf")
            second = client.analyze(APPEND, ("append", 3), "ffb")
            assert not second.cached
            assert second.key != first.key


class TestConcurrency:
    def test_concurrent_mixed_mode_requests(self, tmp_path):
        """The acceptance shape: a corpus slice, mixed modes, many
        client threads, every verdict byte-identical to serial."""
        items = [as_batch_item(e) for e in all_programs()[:6]]
        expected = {
            item.name: local_payload_text(
                item.source, item.root, item.mode
            )
            for item in items
        }
        with serve(tmp_path, jobs=2, max_inflight=32) as (app, client):
            with concurrent.futures.ThreadPoolExecutor(6) as executor:
                answers = list(executor.map(
                    lambda item: (item.name, client.analyze(
                        item.source, item.root, item.mode
                    )),
                    items,
                ))
            for name, answer in answers:
                assert answer.text == expected[name], name
            # And a full warm replay hits the store for every item.
            for item in items:
                assert client.analyze(
                    item.source, item.root, item.mode
                ).cached

    def test_backpressure_429_at_capacity(self, tmp_path):
        with serve(
            tmp_path, pool=SlowPool(delay=0.8), max_inflight=1
        ) as (app, client):
            with concurrent.futures.ThreadPoolExecutor(1) as executor:
                first = executor.submit(
                    client.analyze, APPEND, ("append", 3), "bbf"
                )
                time.sleep(0.2)  # let the first request occupy the slot
                with pytest.raises(ServeError) as excinfo:
                    client.analyze(APPEND, ("append", 3), "ffb")
                assert excinfo.value.status == 429
                assert first.result(30).proved
            # Capacity frees once the first solve lands.
            assert client.analyze(APPEND, ("append", 3), "ffb").proved

    def test_request_timeout_is_504(self, tmp_path):
        with serve(
            tmp_path, pool=SlowPool(delay=5.0), request_timeout=0.3
        ) as (app, client):
            with pytest.raises(ServeError) as excinfo:
                client.analyze(APPEND, ("append", 3), "bbf")
            assert excinfo.value.status == 504

    def test_graceful_drain_finishes_inflight_work(self, tmp_path):
        """Shutdown mid-solve: the in-flight request completes and its
        verdict is persisted; the listener refuses new work."""
        store_dir = tmp_path / "cache"
        store = ResultStore(str(store_dir))
        app = ServeApp(store, SlowPool(delay=0.6))
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                app.start(port=0), loop
            ).result(10)
            client = ServeClient("127.0.0.1:%d" % app.port)
            with concurrent.futures.ThreadPoolExecutor(1) as executor:
                inflight = executor.submit(
                    client.analyze, APPEND, ("append", 3), "bbf"
                )
                time.sleep(0.2)  # request admitted, solve under way
                drain = asyncio.run_coroutine_threadsafe(
                    app.shutdown(), loop
                )
                answer = inflight.result(30)
                drain.result(30)
            assert answer.proved and not answer.cached
            # No half-written entries: the drained verdict is readable
            # from a fresh handle on the same store.
            with ResultStore(str(store_dir)) as reopened:
                assert reopened.get(answer.key) == answer.text
            with pytest.raises(ServeError):
                client.health()  # listener is gone
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.close()


class TestRemoteCli:
    def test_remote_flag_round_trips(self, tmp_path, capsys):
        from repro.cli import main
        from repro.corpus import get_program

        entry = get_program("perm")
        source_file = tmp_path / "perm.pl"
        source_file.write_text(entry.source)
        with serve(tmp_path) as (app, client):
            url = "http://127.0.0.1:%d" % app.port
            code = main([
                str(source_file), "--root", "perm/2", "--mode", "bf",
                "--remote", url,
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "PROVED" in out

    def test_remote_json_matches_local_cache_dir_json(
        self, tmp_path, capsys
    ):
        """The end-to-end byte-identity promise: --remote --json and
        --cache-dir --json print the same canonical payload."""
        from repro.cli import main

        source_file = tmp_path / "append.pl"
        source_file.write_text(APPEND)
        base = [
            str(source_file), "--root", "append/3", "--mode", "bbf",
            "--json",
        ]
        with serve(tmp_path) as (app, client):
            url = "http://127.0.0.1:%d" % app.port
            assert main(base + ["--remote", url]) == 0
            remote_out = capsys.readouterr().out
        assert main(
            base + ["--cache-dir", str(tmp_path / "cli-cache")]
        ) == 0
        local_out = capsys.readouterr().out
        assert remote_out == local_out

    def test_remote_rejects_local_only_flags(self, tmp_path):
        from repro.cli import main

        source_file = tmp_path / "append.pl"
        source_file.write_text(APPEND)
        with pytest.raises(SystemExit):
            main([
                str(source_file), "--root", "append/3",
                "--mode", "bbf", "--remote", "http://127.0.0.1:1",
                "--jobs", "2",
            ])


GCD = None


def _gcd_sources():
    """The multi-SCC corpus program and a one-clause edit of it."""
    global GCD
    if GCD is None:
        from repro.corpus import get_program

        entry = get_program("gcd_euclid")
        GCD = (entry.source, entry.source + "\ngcd(zzz, zzz, zzz).\n")
    return GCD


class TestIncremental:
    def test_incremental_request_populates_and_reuses(self, tmp_path):
        old, new = _gcd_sources()
        with serve(tmp_path) as (app, client):
            cold = client.analyze(old, ("gcd", 3), "bbf",
                                  incremental=True)
            assert cold.proved and not cold.cached
            assert cold.sccs_reused == 0
            assert cold.sccs_reproved > 1
            assert client.health()["store"]["certificates"] > 0
            # The edited program misses the verdict store but reuses
            # every untouched SCC's certificate.
            warm = client.analyze(new, ("gcd", 3), "bbf",
                                  incremental=True)
            assert warm.proved and not warm.cached
            assert warm.sccs_reused == cold.sccs_reproved - 1
            assert warm.sccs_reproved == 1

    def test_incremental_body_matches_full_solve(self, tmp_path):
        old, _ = _gcd_sources()
        with serve(tmp_path) as (app, client):
            incremental = client.analyze(old, ("gcd", 3), "bbf",
                                         incremental=True)
            assert incremental.text == local_payload_text(
                old, ("gcd", 3), "bbf"
            )
            # Same content address: the full-solve replay is a store
            # hit on the incremental run's verdict.
            replay = client.analyze(old, ("gcd", 3), "bbf")
            assert replay.cached
            assert replay.text == incremental.text

    def test_plain_request_reports_no_scc_counts(self, tmp_path):
        with serve(tmp_path) as (app, client):
            answer = client.analyze(APPEND, ("append", 3), "bbf")
            assert answer.sccs_reused == 0
            assert answer.sccs_reproved == 0
