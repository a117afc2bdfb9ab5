"""The final feasibility step: statistics, and differential property
tests — over randomized small constraint systems, SimplexBackend must
agree on feasibility with the Fraction simplex oracle, every returned
witness must actually satisfy the system, and full Fourier–Motzkin
elimination must reach a contradiction exactly when the system is
infeasible."""

import random
from fractions import Fraction

import pytest

from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import OPTIMAL
from repro.solve import SimplexBackend, SolveOutcome

from tests.property.simplex_oracle import oracle_solve


def random_system(rng):
    """A small random system over <= 4 variables, mixing relations.

    Half the draws are anchored on a random integer point (guaranteed
    feasible); the rest are unconstrained draws, which are frequently
    infeasible — so both branches of the agreement property get
    exercised.
    """
    variables = ["v%d" % i for i in range(rng.randint(1, 4))]
    anchored = rng.random() < 0.5
    point = {v: Fraction(rng.randint(-3, 3)) for v in variables}
    system = ConstraintSystem()
    for _ in range(rng.randint(1, 6)):
        expr = LinearExpr()
        for var in variables:
            coeff = rng.randint(-3, 3)
            if coeff:
                expr = expr + LinearExpr.of(var, coeff)
        relation_roll = rng.random()
        if anchored:
            # Shift the row so the anchor point satisfies it.
            value = expr.evaluate(point)
            if relation_roll < 0.25:
                system.add(Constraint.eq(expr, value))
            elif relation_roll < 0.625:
                system.add(Constraint.ge(expr, value - rng.randint(0, 2)))
            else:
                system.add(Constraint.le(expr, value + rng.randint(0, 2)))
        else:
            constant = rng.randint(-4, 4)
            if relation_roll < 0.25:
                system.add(Constraint.eq(expr, constant))
            elif relation_roll < 0.625:
                system.add(Constraint.ge(expr, constant))
            else:
                system.add(Constraint.le(expr, constant))
    return system


def oracle_feasible(system):
    """Feasibility by the Fraction simplex tableau (zero objective)."""
    return oracle_solve(LinearExpr.constant(0), system).status == OPTIMAL


class TestOutcomes:
    def test_feasible_witness_satisfies(self):
        system = ConstraintSystem([
            Constraint.ge(LinearExpr.of("x"), 2),
            Constraint.le(LinearExpr.of("x"), 5),
            Constraint.eq(LinearExpr.of("y"), LinearExpr.of("x", 2)),
        ])
        outcome = SimplexBackend().feasible_point(system)
        assert isinstance(outcome, SolveOutcome)
        assert outcome.feasible
        assert system.satisfied_by(outcome.witness)
        assert outcome.stats.rows_in == len(system)

    def test_infeasible_has_no_witness(self):
        system = ConstraintSystem([
            Constraint.ge(LinearExpr.of("x"), 3),
            Constraint.le(LinearExpr.of("x"), 1),
        ])
        outcome = SimplexBackend().feasible_point(system)
        assert not outcome.feasible
        assert outcome.witness is None

    def test_simplex_counts_pivots(self):
        system = ConstraintSystem([
            Constraint.ge(LinearExpr.of("x"), 1),
            Constraint.ge(LinearExpr.of("y") - LinearExpr.of("x"), 1),
        ])
        outcome = SimplexBackend().feasible_point(system)
        assert outcome.feasible
        assert outcome.stats.pivots > 0
        assert outcome.stats.wall_time >= 0

    def test_feasible_points_is_one_outcome_per_system_in_order(self):
        rng = random.Random(7)
        systems = [random_system(rng) for _ in range(8)]
        backend = SimplexBackend()
        outcomes = backend.feasible_points(systems)
        assert [o.feasible for o in outcomes] == [
            backend.feasible_point(system).feasible for system in systems
        ]


class TestDifferential:
    """Different decision procedures for the same question; they must
    never disagree."""

    @pytest.mark.parametrize("seed", range(60))
    def test_backends_agree_and_witnesses_hold(self, seed):
        rng = random.Random(seed)
        system = random_system(rng)
        outcome = SimplexBackend().feasible_point(system)
        assert outcome.feasible == oracle_feasible(system), str(system)
        if outcome.feasible:
            assert system.satisfied_by(outcome.witness), (
                str(system), outcome.witness,
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_full_elimination_agrees_with_simplex(self, seed):
        rng = random.Random(1000 + seed)
        system = random_system(rng)
        eliminated = eliminate_all(system, list(system.variables()))
        assert not eliminated.variables()
        assert eliminated.has_contradiction_row() == (
            not SimplexBackend().feasible_point(system).feasible
        ), str(system)
