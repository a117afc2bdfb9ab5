"""Tests for the command-line front end."""

import pytest

from repro.cli import main, parse_root
from repro.core import clear_caches


@pytest.fixture
def perm_file(tmp_path):
    path = tmp_path / "perm.pl"
    path.write_text(
        "perm([], []).\n"
        "perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), "
        "perm(P1, L).\n"
        "append([], Ys, Ys).\n"
        "append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n"
    )
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.pl"
    path.write_text("p(X) :- p(X).\n")
    return str(path)


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.pl"
    path.write_text(
        "p(g(X)) :- e(X).\n"
        "p(g(X)) :- q(f(X)).\n"
        "q(Y) :- p(Y).\n"
        "q(f(Z)) :- p(Z), q(Z).\n"
    )
    return str(path)


class TestParseRoot:
    def test_simple(self):
        assert parse_root("perm/2") == ("perm", 2)

    def test_bad_format(self):
        with pytest.raises(SystemExit):
            parse_root("perm")


class TestMain:
    def test_proved_exit_zero(self, perm_file, capsys):
        code = main([perm_file, "--root", "perm/2", "--mode", "bf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PROVED" in out

    def test_unknown_exit_one(self, loop_file, capsys):
        code = main([loop_file, "--root", "p/1", "--mode", "b"])
        assert code == 1
        assert "UNKNOWN" in capsys.readouterr().out

    def test_kernel_flag_is_gone(self, perm_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([perm_file, "--root", "perm/2", "--mode", "bf",
                  "--kernel", "int"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(a")
        code = main([str(bad), "--root", "p/1", "--mode", "b"])
        assert code == 2

    def test_verify_flag(self, perm_file, capsys):
        code = main(
            [perm_file, "--root", "perm/2", "--mode", "bf", "--verify"]
        )
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_verbose_shows_environment(self, perm_file, capsys):
        main([perm_file, "--root", "perm/2", "--mode", "bf", "--verbose"])
        out = capsys.readouterr().out
        assert "Inter-argument constraints" in out

    def test_transform_flag_on_a1(self, a1_file, capsys):
        without = main([a1_file, "--root", "p/1", "--mode", "b"])
        assert without == 1
        with_transform = main(
            [a1_file, "--root", "p/1", "--mode", "b", "--transform"]
        )
        assert with_transform == 0

    def test_no_interarg_flag(self, perm_file):
        code = main(
            [perm_file, "--root", "perm/2", "--mode", "bf", "--no-interarg"]
        )
        assert code == 1

    def test_stats_flag_prints_stage_table(self, perm_file, capsys):
        code = main(
            [perm_file, "--root", "perm/2", "--mode", "bf", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipeline stage trace" in out
        for stage in ("adorn", "interarg", "dualize", "solve", "certify"):
            assert stage in out

    def test_stats_off_by_default(self, perm_file, capsys):
        main([perm_file, "--root", "perm/2", "--mode", "bf"])
        assert "Pipeline stage trace" not in capsys.readouterr().out

    def test_all_modes_stats_merges_traces(self, tmp_path, capsys):
        # Start cold: an earlier test may have left append/3's
        # environment in the process-wide cache.
        clear_caches()
        path = tmp_path / "modes.pl"
        path.write_text(
            ":- mode(append(b, b, f)).\n"
            ":- mode(append(f, f, b)).\n"
            "append([], Ys, Ys).\n"
            "append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).\n"
        )
        code = main([str(path), "--all-modes", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "append/3 mode bbf: PROVED" in out
        assert "append/3 mode ffb: PROVED" in out
        assert "Pipeline stage trace" in out
        # One analyzer serves both modes: the second mode reuses the
        # inter-argument environment, so the merged trace shows a hit.
        adorn_row = [l for l in out.splitlines() if l.strip().startswith("interarg")][0]
        assert "1/1" in adorn_row  # cache h/m across the two modes

    def test_json_includes_trace(self, perm_file, capsys):
        import json

        code = main([perm_file, "--root", "perm/2", "--mode", "bf", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["norm"] == "structural"
        stages = [entry["stage"] for entry in data["trace"]]
        assert "solve" in stages

    def test_bad_root_is_a_clear_error(self, perm_file, capsys):
        code = main([perm_file, "--root", "prem/2", "--mode", "bf"])
        assert code == 2
        err = capsys.readouterr().err
        assert "prem/2" in err
        assert "perm/2" in err  # names what IS defined

    def test_bad_mode_is_a_clear_error(self, perm_file, capsys):
        code = main([perm_file, "--root", "perm/2", "--mode", "bff"])
        assert code == 2
        assert "needs 2" in capsys.readouterr().err

    def test_norm_flag(self, tmp_path):
        path = tmp_path / "msort.pl"
        from repro.corpus.registry import get_program

        path.write_text(get_program("mergesort").source)
        structural = main(
            [str(path), "--root", "msort/2", "--mode", "bf"]
        )
        lengths = main(
            [str(path), "--root", "msort/2", "--mode", "bf",
             "--norm", "list_length"]
        )
        assert structural == 1
        assert lengths == 0


class TestTimeout:
    """--timeout: exit 3 on expiry, no effect when analysis is fast."""

    def test_generous_budget_is_a_no_op(self, perm_file, capsys):
        code = main(
            [perm_file, "--root", "perm/2", "--mode", "bf",
             "--timeout", "60"]
        )
        assert code == 0
        assert "PROVED" in capsys.readouterr().out

    def test_expired_budget_exits_three(self, perm_file, capsys,
                                        monkeypatch):
        import repro.methods as methods_module

        def stall(*args, **kwargs):
            import time

            time.sleep(10)

        monkeypatch.setattr(methods_module, "run_method", stall)
        code = main(
            [perm_file, "--root", "perm/2", "--mode", "bf",
             "--timeout", "0.2"]
        )
        assert code == 3
        assert "timed out" in capsys.readouterr().err

    def test_timeout_is_distinct_from_unknown(self, loop_file):
        # UNKNOWN stays 1 even under a (generous) deadline.
        code = main(
            [loop_file, "--root", "p/1", "--mode", "b",
             "--timeout", "60"]
        )
        assert code == 1


class TestMethodFlag:
    """--method / --list-methods: the pluggable prover front end."""

    def test_list_methods(self, capsys):
        code = main(["--list-methods"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("argsize", "sizechange", "nonterm", "portfolio"):
            assert name in out

    def test_source_still_required_without_list(self):
        with pytest.raises(SystemExit, match="source"):
            main(["--root", "p/1", "--mode", "b"])

    def test_unknown_method_exits_two_with_choices(self, loop_file,
                                                   capsys):
        code = main([loop_file, "--root", "p/1", "--mode", "b",
                     "--method", "magic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "magic" in err
        assert "portfolio" in err

    def test_portfolio_disproves_loop(self, loop_file, capsys):
        code = main([loop_file, "--root", "p/1", "--mode", "b",
                     "--method", "portfolio"])
        assert code == 1
        out = capsys.readouterr().out
        assert "DISPROVED" in out
        assert "looping derivation" in out

    def test_sizechange_proves_ackermann(self, tmp_path, capsys):
        path = tmp_path / "ack.pl"
        path.write_text(
            "ack(0, N, s(N)).\n"
            "ack(s(M), 0, R) :- ack(M, s(0), R).\n"
            "ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).\n"
        )
        code = main([str(path), "--root", "ack/3", "--mode", "bbf",
                     "--method", "sizechange"])
        assert code == 0
        assert "PROVED" in capsys.readouterr().out

    def test_verify_with_proofless_certificate_notes_it(self, tmp_path,
                                                        capsys):
        path = tmp_path / "ack.pl"
        path.write_text(
            "ack(0, N, s(N)).\n"
            "ack(s(M), 0, R) :- ack(M, s(0), R).\n"
            "ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).\n"
        )
        code = main([str(path), "--root", "ack/3", "--mode", "bbf",
                     "--method", "sizechange", "--verify"])
        assert code == 0
        assert "no lambda certificate" in capsys.readouterr().err

    def test_method_json_includes_method(self, loop_file, capsys):
        import json

        code = main([loop_file, "--root", "p/1", "--mode", "b",
                     "--method", "nonterm", "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "nonterm"
        assert data["status"] == "DISPROVED"


class TestCacheDir:
    """--cache-dir: the CLI face of the persistent result store."""

    def test_cold_then_warm(self, perm_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = [perm_file, "--root", "perm/2", "--mode", "bf",
                "--cache-dir", cache]
        assert main(base) == 0
        cold = capsys.readouterr()
        assert "served from store" not in cold.err
        assert main(base) == 0
        warm = capsys.readouterr()
        assert "served from store" in warm.err
        assert "PROVED" in warm.out

    def test_json_byte_identical_cold_and_warm(self, perm_file,
                                               tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = [perm_file, "--root", "perm/2", "--mode", "bf",
                "--json", "--cache-dir", cache]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert main(base) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_unknown_exit_code_preserved_on_hit(self, loop_file,
                                                tmp_path):
        cache = str(tmp_path / "cache")
        base = [loop_file, "--root", "p/1", "--mode", "b",
                "--cache-dir", cache]
        assert main(base) == 1  # cold miss solves
        assert main(base) == 1  # warm hit keeps the verdict's code

    def test_verify_skips_the_store_read(self, perm_file, tmp_path,
                                         capsys):
        cache = str(tmp_path / "cache")
        base = [perm_file, "--root", "perm/2", "--mode", "bf",
                "--cache-dir", cache]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--verify"]) == 0
        captured = capsys.readouterr()
        assert "served from store" not in captured.err
        assert "verified" in captured.out


@pytest.fixture
def chain_files(tmp_path):
    """A two-SCC program (OLD) and a one-clause edit of it (NEW)."""
    source = (
        "leq(z, X).\n"
        "leq(s(X), s(Y)) :- leq(X, Y).\n"
        "count([], z).\n"
        "count([H|T], s(N)) :- count(T, N), leq(N, N).\n"
    )
    old = tmp_path / "old.pl"
    old.write_text(source)
    new = tmp_path / "new.pl"
    new.write_text(source + "count([z], s(z)).\n")
    return str(old), str(new)


class TestDiff:
    def test_diff_reports_reuse_split(self, chain_files, capsys):
        from repro.core import clear_caches

        clear_caches()
        old, new = chain_files
        code = main([old, "--diff", new,
                     "--root", "count/2", "--mode", "bf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PROVED -> PROVED" in out
        # The edit touched count/2 only; leq/2's certificate survives.
        assert "1 reused, 1 re-proved" in out

    def test_diff_json_counts(self, chain_files, capsys):
        import json

        from repro.core import clear_caches

        clear_caches()
        old, new = chain_files
        code = main([old, "--diff", new,
                     "--root", "count/2", "--mode", "bf", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["new"]["status"] == "PROVED"
        assert data["new"]["sccs_reused"] == 1
        assert data["new"]["sccs_reproved"] == 1
        assert data["new"]["sccs_rejected"] == 0

    def test_diff_with_store_warms_across_runs(self, chain_files,
                                               tmp_path, capsys):
        from repro.core import clear_caches

        old, new = chain_files
        store = str(tmp_path / "store")
        clear_caches()
        main([old, "--diff", new, "--root", "count/2", "--mode", "bf",
              "--cache-dir", store, "--json"])
        capsys.readouterr()
        clear_caches()
        code = main([old, "--diff", new, "--root", "count/2",
                     "--mode", "bf", "--cache-dir", store, "--json"])
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        # Second run: every certificate (both SCCs) comes from the
        # persistent store.
        assert data["new"]["sccs_reused"] == 2
        assert data["new"]["sccs_reproved"] == 0

    def test_diff_needs_root_and_mode(self, chain_files):
        old, new = chain_files
        with pytest.raises(SystemExit):
            main([old, "--diff", new, "--all-modes"])

    def test_diff_excludes_no_incremental(self, chain_files):
        old, new = chain_files
        with pytest.raises(SystemExit):
            main([old, "--diff", new, "--root", "count/2",
                  "--mode", "bf", "--no-incremental"])

    def test_diff_missing_new_file_is_usage_error(self, chain_files,
                                                  capsys):
        old, _ = chain_files
        code = main([old, "--diff", old + ".does-not-exist",
                     "--root", "count/2", "--mode", "bf"])
        assert code == 2


class TestNoIncremental:
    def test_no_incremental_reproves_under_warm_store(self, chain_files,
                                                      tmp_path, capsys):
        from repro.core import clear_caches

        old, _ = chain_files
        store = str(tmp_path / "store")
        clear_caches()
        assert main([old, "--root", "count/2", "--mode", "bf",
                     "--cache-dir", store]) == 0
        first = capsys.readouterr()
        # Different mode so the verdict store misses but certificates
        # would hit; --no-incremental must not consult them.
        clear_caches()
        assert main([old, "--root", "leq/2", "--mode", "bb",
                     "--cache-dir", store, "--no-incremental"]) == 0
        second = capsys.readouterr()
        assert "reused" not in second.err

    def test_incremental_flag_is_remote_only(self, chain_files):
        old, _ = chain_files
        with pytest.raises(SystemExit):
            main([old, "--root", "count/2", "--mode", "bf",
                  "--incremental"])
