"""Per-prover behavior on small hand-written programs."""

import pytest

from repro.core import AnalyzerSettings, DISPROVED, PROVED, UNKNOWN
from repro.core.export import result_to_dict
from repro.core.report import render_report, render_verdict_table
from repro.lp import parse_program
from repro.methods import is_pure_program, run_method

ACKERMANN = """
ack(0, N, s(N)).
ack(s(M), 0, R) :- ack(M, s(0), R).
ack(s(M), s(N), R) :- ack(s(M), N, R1), ack(M, R1, R).
"""

APPEND = """
append([], Ys, Ys).
append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
"""

LOOP = "p(X) :- p(X).\n"


def analyze(source, root, mode, method):
    return run_method(
        parse_program(source), root, mode,
        settings=AnalyzerSettings(method=method),
    )


class TestSizeChange:
    def test_proves_ackermann_where_argsize_cannot(self):
        # The lexicographic descent: no single linear combination of
        # the two bound arguments decreases on every recursive call,
        # but some bound argument does along every infinite sequence.
        assert analyze(ACKERMANN, ("ack", 3), "bbf", "argsize").status \
            == UNKNOWN
        result = analyze(ACKERMANN, ("ack", 3), "bbf", "sizechange")
        assert result.status == PROVED
        assert result.method == "sizechange"

    def test_proof_is_reason_only(self):
        # Size-change PROVED carries no lambda certificate.
        result = analyze(ACKERMANN, ("ack", 3), "bbf", "sizechange")
        assert result.proof is None
        scc = [s for s in result.scc_results if not s.proof][0]
        assert "size-change" in scc.reason

    def test_agrees_with_argsize_on_append(self):
        assert analyze(APPEND, ("append", 3), "bbf", "sizechange").status \
            == PROVED

    def test_loop_stays_unknown(self):
        # sizechange never disproves; an unrankable loop is UNKNOWN.
        assert analyze(LOOP, ("p", 1), "b", "sizechange").status == UNKNOWN


class TestNonTerm:
    def test_disproves_direct_loop_with_witness(self):
        result = analyze(LOOP, ("p", 1), "b", "nonterm")
        assert result.status == DISPROVED
        failing = result.scc_results[0]
        assert "looping derivation" in failing.reason
        assert failing.method == "nonterm"

    def test_terminating_program_is_unknown_not_proved(self):
        # nonterm is one-sided: it can only disprove.
        assert analyze(APPEND, ("append", 3), "bbf", "nonterm").status \
            == UNKNOWN

    def test_purity_gate_cut(self):
        # A cut can prune the looping branch, so the loop criteria are
        # unsound: the method must refuse to disprove.
        source = "p(X) :- !, p(X).\n"
        assert not is_pure_program(parse_program(source))
        result = analyze(source, ("p", 1), "b", "nonterm")
        assert result.status == UNKNOWN
        assert "unsound" in result.scc_results[0].reason

    def test_purity_gate_negation(self):
        source = "p(X) :- \\+ q(X), p(X).\nq(a).\n"
        assert not is_pure_program(parse_program(source))
        assert analyze(source, ("p", 1), "b", "nonterm").status == UNKNOWN


class TestPortfolio:
    def test_sizechange_rescues_ackermann(self):
        result = analyze(ACKERMANN, ("ack", 3), "bbf", "portfolio")
        assert result.status == PROVED
        assert result.method == "portfolio"
        assert [s.method for s in result.scc_results
                if not s.proof] == ["sizechange"]

    def test_nonterm_upgrades_loop_to_disproved(self):
        result = analyze(LOOP, ("p", 1), "b", "portfolio")
        assert result.status == DISPROVED
        assert result.scc_results[-1].method == "nonterm"

    def test_argsize_win_keeps_its_provenance(self):
        result = analyze(APPEND, ("append", 3), "bbf", "portfolio")
        assert result.status == PROVED
        assert all(s.method == "argsize" for s in result.scc_results)


class TestRendering:
    def test_export_carries_method_and_disproved_reason(self):
        result = analyze(LOOP, ("p", 1), "b", "nonterm")
        data = result_to_dict(result)
        assert data["method"] == "nonterm"
        assert data["status"] == DISPROVED
        scc = data["sccs"][0]
        assert scc["method"] == "nonterm"
        assert "looping derivation" in scc["reason"]

    def test_export_handles_proofless_proved_scc(self):
        result = analyze(ACKERMANN, ("ack", 3), "bbf", "sizechange")
        data = result_to_dict(result)
        proved = [s for s in data["sccs"] if s["status"] == PROVED]
        assert any("proof" not in s for s in proved)

    def test_argsize_export_still_says_argsize(self):
        result = analyze(APPEND, ("append", 3), "bbf", "argsize")
        assert result_to_dict(result)["method"] == "argsize"

    def test_report_shows_method_and_reason(self):
        text = render_report(analyze(LOOP, ("p", 1), "b", "portfolio"))
        assert "Method: portfolio" in text
        assert "DISPROVED" in text
        assert "looping derivation" in text

    def test_report_handles_proofless_proved_scc(self):
        text = render_report(
            analyze(ACKERMANN, ("ack", 3), "bbf", "sizechange")
        )
        assert "Verdict: PROVED" in text
        assert "size-change" in text

    def test_verdict_table_pads_short_rows(self):
        table = render_verdict_table(
            [("p1", "bf", PROVED, "argsize"), ("p2", "bf", UNKNOWN)],
            headers=("program", "mode", "verdict", "method"),
        )
        assert "method" in table.splitlines()[0]
        assert "argsize" in table
