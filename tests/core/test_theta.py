"""Unit tests for theta selection (Section 6.1, Appendix C)."""

from fractions import Fraction

from repro.core import TerminationAnalyzer, clear_caches, pipeline
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import is_feasible
from repro.core.adornment import AdornedPredicate
from repro.core.dual import theta_var
from repro.lp.parser import parse_program
from repro.obs import METRICS
from repro.core.theta import (
    choose_thetas,
    path_constraints,
    substitute_thetas,
    zero_weight_cycle,
)

from tests.interarg.test_env_soundness import ring_program


def node(name):
    return AdornedPredicate((name, 1), "b")


A, B, C = node("a"), node("b"), node("c")


def count_solves(call):
    """``(call(), number of solve_lp calls it made)``."""
    previous = METRICS.set_enabled(True)
    try:
        solves = METRICS.counter("simplex.solves")
        before = solves.value
        result = call()
        return result, solves.value - before
    finally:
        METRICS.set_enabled(previous)


class TestChooseThetas:
    def test_self_loop_always_one(self):
        thetas = choose_thetas(
            [(A, A)], ConstraintSystem(), ConstraintSystem()
        )
        assert thetas[(A, A)] == 1

    def test_unforced_edge_gets_one(self):
        thetas = choose_thetas(
            [(A, B)], ConstraintSystem(), ConstraintSystem()
        )
        assert thetas[(A, B)] == 1

    def test_forced_zero(self):
        # A constraint 0 >= theta forces theta = 0 (the paper's
        # "dual constraint with theta as the constant and only zeros").
        forced = ConstraintSystem(
            [Constraint.le(LinearExpr.of(theta_var(A, B)), 0)]
        )
        thetas = choose_thetas([(A, B)], forced, ConstraintSystem())
        assert thetas[(A, B)] == 0

    def test_parser_pattern(self):
        # theta_et, theta_tn forced 0; theta_ne free (Example 6.1).
        e, t, n = node("e"), node("t"), node("n")
        combined = ConstraintSystem(
            [
                Constraint.le(LinearExpr.of(theta_var(e, t)), 0),
                Constraint.le(LinearExpr.of(theta_var(t, n)), 0),
            ]
        )
        edges = [(e, e), (t, t), (e, t), (t, n), (n, e)]
        thetas = choose_thetas(edges, combined, ConstraintSystem())
        assert thetas[(e, t)] == 0
        assert thetas[(t, n)] == 0
        assert thetas[(n, e)] == 1
        assert thetas[(e, e)] == 1

    def test_non_cone_settles_only_exact_ones(self):
        # theta_f >= theta_e / 2 and 1 - 2 theta_f >= 0: the point
        # pinning theta_e = 1 has theta_f = 1/2 > 0, but the constant
        # term means it does not scale, and theta_f = 1 is infeasible.
        e, f = (A, B), (B, A)
        assert sorted([f, e], key=repr) == [e, f]
        t_e, t_f = LinearExpr.of(theta_var(*e)), LinearExpr.of(theta_var(*f))
        combined = ConstraintSystem(
            [
                Constraint.ge(t_f * 2, t_e),
                Constraint.ge(1 - t_f * 2),
            ]
        )
        thetas = choose_thetas([e, f], combined, ConstraintSystem())
        assert thetas == {e: 1, f: 0}

    def test_cone_point_scales(self):
        # theta_f >= 2 theta_e has no constant term: the point pinning
        # theta_e = 1 has theta_f >= 2, and dividing it by theta_f pins
        # theta_f = 1, so one LP settles both edges.
        e, f = (A, B), (B, A)
        t_e, t_f = LinearExpr.of(theta_var(*e)), LinearExpr.of(theta_var(*f))
        combined = ConstraintSystem([Constraint.ge(t_f, t_e * 2)])
        assert count_solves(
            lambda: choose_thetas([e, f], combined, ConstraintSystem())
        ) == ({e: 1, f: 1}, 1)

    def test_ring_scc_takes_one_lp(self, monkeypatch):
        # The ring's dual system is a cone, and the point that pins
        # the first edge's theta to 1 settles all twelve edges.
        calls = []
        monkeypatch.setattr(
            pipeline, "choose_thetas",
            lambda *args: calls.append(args) or choose_thetas(*args),
        )
        program = parse_program(ring_program(12))
        clear_caches()
        TerminationAnalyzer(program).analyze(("p1", 1), "b")
        (edges, combined, lambda_system), = calls
        assert all(row.const == 0 for row in combined)
        assert all(row.const == 0 for row in lambda_system)

        thetas, solves = count_solves(
            lambda: choose_thetas(edges, combined, lambda_system)
        )
        assert solves == 1
        assert len(thetas) == 12
        assert set(thetas.values()) == {1}


class TestZeroWeightCycle:
    def test_parser_thetas_pass(self):
        e, t, n = node("e"), node("t"), node("n")
        thetas = {
            (e, e): Fraction(1), (t, t): Fraction(1),
            (e, t): Fraction(0), (t, n): Fraction(0),
            (n, e): Fraction(1),
        }
        assert zero_weight_cycle([e, t, n], thetas) is None

    def test_mutual_zero_loop_detected(self):
        thetas = {(A, B): Fraction(0), (B, A): Fraction(0)}
        cycle = zero_weight_cycle([A, B], thetas)
        assert cycle is not None

    def test_self_zero_detected(self):
        cycle = zero_weight_cycle([A], {(A, A): Fraction(0)})
        assert cycle == [A, A]


class TestSubstituteThetas:
    def test_replaces_variables(self):
        system = ConstraintSystem(
            [
                Constraint.ge(
                    LinearExpr.of("lam") - LinearExpr.of(theta_var(A, A))
                )
            ]
        )
        result = substitute_thetas(system, {(A, A): Fraction(1)})
        assert theta_var(A, A) not in result.variables()
        assert result.satisfied_by({"lam": 1})
        assert not result.satisfied_by({"lam": 0})


class TestPathConstraints:
    """Appendix C: positivity of all cycles, sigma eliminated."""

    def test_two_cycle(self):
        system = path_constraints([A, B], [(A, B), (B, A)])
        tab = theta_var(A, B)
        tba = theta_var(B, A)
        # theta_ab = theta_ba = 1/2 gives cycle weight 1: feasible.
        good = ConstraintSystem(
            list(system)
            + [
                Constraint.eq(LinearExpr.of(tab), Fraction(1, 2)),
                Constraint.eq(LinearExpr.of(tba), Fraction(1, 2)),
            ]
        )
        assert is_feasible(good)
        # Zero-weight cycle must be rejected.
        bad = ConstraintSystem(
            list(system)
            + [
                Constraint.eq(LinearExpr.of(tab), 0),
                Constraint.eq(LinearExpr.of(tba), 0),
            ]
        )
        assert not is_feasible(bad)

    def test_negative_weight_allowed_if_cycles_positive(self):
        # Appendix C's point: theta_ab = -1 is fine when theta_ba = 3.
        system = path_constraints([A, B], [(A, B), (B, A)])
        probe = ConstraintSystem(
            list(system)
            + [
                Constraint.eq(LinearExpr.of(theta_var(A, B)), -1),
                Constraint.eq(LinearExpr.of(theta_var(B, A)), 3),
            ]
        )
        assert is_feasible(probe)

    def test_self_loop_must_be_at_least_one(self):
        system = path_constraints([A], [(A, A)])
        low = ConstraintSystem(
            list(system)
            + [Constraint.eq(LinearExpr.of(theta_var(A, A)), Fraction(1, 2))]
        )
        assert not is_feasible(low)
        ok = ConstraintSystem(
            list(system)
            + [Constraint.eq(LinearExpr.of(theta_var(A, A)), 1)]
        )
        assert is_feasible(ok)

    def test_triangle_cycle(self):
        edges = [(A, B), (B, C), (C, A)]
        system = path_constraints([A, B, C], edges)
        zero_total = ConstraintSystem(
            list(system)
            + [
                Constraint.eq(LinearExpr.of(theta_var(*edge)), 0)
                for edge in edges
            ]
        )
        assert not is_feasible(zero_total)
        positive_total = ConstraintSystem(
            list(system)
            + [
                Constraint.eq(
                    LinearExpr.of(theta_var(A, B)), 2
                ),
                Constraint.eq(LinearExpr.of(theta_var(B, C)), 0),
                Constraint.eq(LinearExpr.of(theta_var(C, A)), -1),
            ]
        )
        assert is_feasible(positive_total)
