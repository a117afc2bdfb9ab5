"""Unit/integration tests for the full analyzer pipeline."""

from fractions import Fraction

from repro.lp import parse_program
from repro.core import (
    AnalyzerSettings,
    TerminationAnalyzer,
    analyze_program,
)
from repro.core.adornment import AdornedPredicate
from repro.core.analyzer import PROVED, UNKNOWN
from repro.interarg import SizeEnvironment
from repro.linalg.constraints import Constraint
from repro.linalg.linexpr import LinearExpr
from repro.sizes.size_equations import arg_dimension


class TestSimplePrograms:
    def test_append_bbf(self, append_program):
        result = analyze_program(append_program, ("append", 3), "bbf")
        assert result.status == PROVED

    def test_append_all_free_unknown(self, append_program):
        result = analyze_program(append_program, ("append", 3), "fff")
        assert result.status == UNKNOWN
        (failing,) = result.failing_sccs()
        assert "no bound arguments" in failing.reason

    def test_text_program_accepted(self):
        result = analyze_program(
            "p(s(N)) :- p(N).\np(0).", ("p", 1), "b"
        )
        assert result.proved

    def test_nonrecursive_trivial(self):
        result = analyze_program("p(X) :- q(X).\nq(a).", ("p", 1), "b")
        assert result.proved
        assert all(
            r.proof.trivially_nonrecursive for r in result.scc_results
        )

    def test_direct_loop_unknown(self):
        result = analyze_program("p(X) :- p(X).", ("p", 1), "b")
        assert result.status == UNKNOWN

    def test_growing_loop_unknown(self):
        result = analyze_program("q([X|L]) :- q([X, X|L]).", ("q", 1), "b")
        assert result.status == UNKNOWN


class TestCertificateContents:
    def test_append_lambda_on_first_argument(self, append_program):
        result = analyze_program(append_program, ("append", 3), "bbf")
        node = AdornedPredicate(("append", 3), "bbf")
        proof = result.proof.proof_for(node)
        weights = proof.lambda_for(node)
        # The decrease comes through argument 1 (possibly with weight
        # on argument 2 as well); weight 1 must be positive.
        assert weights[1] > 0

    def test_merge_equal_weights(self, merge_program):
        result = analyze_program(merge_program, ("merge", 3), "bbf")
        node = AdornedPredicate(("merge", 3), "bbf")
        proof = result.proof.proof_for(node)
        weights = proof.lambda_for(node)
        # Example 5.1: lambda1 = lambda2 >= 1/2.
        assert weights[1] == weights[2]
        assert weights[1] >= Fraction(1, 2)

    def test_theta_matrix_recorded(self, parser_program):
        result = analyze_program(parser_program, ("e", 2), "bf")
        scc_proof = [
            p for p in result.proof.scc_proofs
            if not p.trivially_nonrecursive
        ][0]
        e = AdornedPredicate(("e", 2), "bf")
        t = AdornedPredicate(("t", 2), "bf")
        n = AdornedPredicate(("n", 2), "bf")
        assert scc_proof.thetas[(e, t)] == 0
        assert scc_proof.thetas[(t, n)] == 0
        assert scc_proof.thetas[(n, e)] == 1


class TestZeroCycleRejection:
    def test_mutual_loop_reports_cycle(self):
        result = analyze_program(
            "p(X) :- q(X).\nq(X) :- p(X).", ("p", 1), "b"
        )
        assert result.status == UNKNOWN
        (failing,) = result.failing_sccs()
        assert "zero-weight cycle" in failing.reason


class TestSettings:
    def test_interarg_toggle_changes_perm(self, perm_program):
        with_interarg = analyze_program(perm_program, ("perm", 2), "bf")
        without = analyze_program(
            perm_program,
            ("perm", 2),
            "bf",
            settings=AnalyzerSettings(use_interarg=False),
        )
        assert with_interarg.proved
        assert not without.proved

    def test_norm_selection(self):
        # Mergesort: UNKNOWN under structural, PROVED under list_length.
        from repro.corpus.registry import get_program, load

        entry = get_program("mergesort")
        program = load(entry)
        structural = analyze_program(program, entry.root, entry.mode)
        lengths = analyze_program(
            program, entry.root, entry.mode,
            settings=AnalyzerSettings(norm="list_length"),
        )
        assert structural.status == UNKNOWN
        assert lengths.status == PROVED

    def test_negative_theta_mode_on_parser(self, parser_program):
        result = analyze_program(
            parser_program,
            ("e", 2),
            "bf",
            settings=AnalyzerSettings(allow_negative_theta=True),
        )
        assert result.proved
        scc_proof = [
            p for p in result.proof.scc_proofs
            if not p.trivially_nonrecursive
        ][0]
        # All cycles must still be positive.
        from repro.graph.minplus import find_nonpositive_cycle

        assert find_nonpositive_cycle(
            list(scc_proof.members), dict(scc_proof.thetas)
        ) is None

    def test_eq8_route_same_verdicts(self, merge_program, perm_program):
        """The paper's theoretical variant (keep the w multipliers,
        'stop with Eq. 8') must agree with the practical FM route."""
        settings = AnalyzerSettings(eliminate_w=False)
        assert analyze_program(
            merge_program, ("merge", 3), "bbf", settings=settings
        ).proved
        assert analyze_program(
            perm_program, ("perm", 2), "bf", settings=settings
        ).proved
        assert not analyze_program(
            "p(X) :- q(X).\nq(X) :- p(X).", ("p", 1), "b",
            settings=settings,
        ).proved

    def test_negative_theta_rejects_loops(self):
        result = analyze_program(
            "p(X) :- q(X).\nq(X) :- p(X).",
            ("p", 1),
            "b",
            settings=AnalyzerSettings(allow_negative_theta=True),
        )
        assert result.status == UNKNOWN


class TestExternalConstraints:
    def test_hand_supplied_constraints(self, perm_program):
        analyzer = TerminationAnalyzer(perm_program)
        env = SizeEnvironment()
        env.set_from_constraints(
            ("append", 3),
            [
                Constraint.eq(
                    LinearExpr.of(arg_dimension(1))
                    + LinearExpr.of(arg_dimension(2)),
                    LinearExpr.of(arg_dimension(3)),
                )
            ],
        )
        analyzer.use_external_constraints(env)
        result = analyzer.analyze(("perm", 2), "bf")
        assert result.proved


class TestMultiModeAnalysis:
    def test_perm_proves_both_append_modes(self, perm_program):
        result = analyze_program(perm_program, ("perm", 2), "bf")
        proved_nodes = {
            str(node)
            for scc in result.scc_results
            if scc.proved
            for node in scc.members
        }
        assert "append/3^ffb" in proved_nodes
        assert "append/3^bbf" in proved_nodes

    def test_reanalysis_reuses_analyzer(self, append_program):
        analyzer = TerminationAnalyzer(append_program)
        first = analyzer.analyze(("append", 3), "bbf")
        second = analyzer.analyze(("append", 3), "ffb")
        assert first.proved and second.proved


class TestDescribe:
    def test_describe_contains_verdict(self, merge_program):
        result = analyze_program(merge_program, ("merge", 3), "bbf")
        text = result.describe()
        assert "PROVED" in text
        assert "merge/3^bbf" in text

    def test_describe_failure_reason(self):
        result = analyze_program("p(X) :- p(X).", ("p", 1), "b")
        assert "infeasible" in result.describe()
