"""Integration tests for inter-argument constraint inference.

Pins the exact constraints the paper *imports* from [VG90]:
``append1 + append2 = append3`` (Example 3.1) and ``t1 >= 2 + t2``
(Example 6.1), plus the relations other corpus programs rely on, and
checks that the change-driven fixpoint installs exactly the polyhedra
a full recomputation of every round would.
"""

import pytest

from repro.lp import parse_program
from repro.linalg.constraints import Constraint
from repro.linalg.linexpr import LinearExpr
from repro.linalg.polyhedron import Polyhedron
from repro.sizes.size_equations import arg_dimension
from repro.interarg import (
    InferenceSettings,
    SizeEnvironment,
    infer_interargument_constraints,
)


def dim(i):
    return LinearExpr.of(arg_dimension(i))


class TestAppend:
    def test_paper_constraint_derived(self, append_program):
        env = infer_interargument_constraints(append_program)
        poly = env.get(("append", 3))
        assert poly.entails_constraint(
            Constraint.eq(dim(1) + dim(2), dim(3))
        )

    def test_nonnegativity_retained(self, append_program):
        env = infer_interargument_constraints(append_program)
        poly = env.get(("append", 3))
        for i in (1, 2, 3):
            assert poly.entails_constraint(Constraint.ge(dim(i)))

    def test_no_spurious_lower_bound(self, append_program):
        env = infer_interargument_constraints(append_program)
        poly = env.get(("append", 3))
        # (0, 0, 0) is a derivable size vector (append([],[],[])).
        assert poly.contains_point(
            {arg_dimension(1): 0, arg_dimension(2): 0, arg_dimension(3): 0}
        )


class TestParserSCC:
    def test_paper_constraint_t1_ge_2_plus_t2(self, parser_program):
        env = infer_interargument_constraints(parser_program)
        for name in ("e", "t", "n"):
            poly = env.get((name, 2))
            assert poly.entails_constraint(
                Constraint.ge(dim(1), dim(2) + 2)
            ), "%s should satisfy arg1 >= 2 + arg2" % name


class TestPeanoRelations:
    LESS = """
        less(0, s(_)).
        less(s(X), s(Y)) :- less(X, Y).
    """

    def test_less_strict_inequality(self):
        env = infer_interargument_constraints(parse_program(self.LESS))
        poly = env.get(("less", 2))
        assert poly.entails_constraint(Constraint.ge(dim(2), dim(1) + 1))

    def test_sub_difference_equality(self):
        program = parse_program(
            """
            sub(X, 0, X).
            sub(s(X), s(Y), Z) :- sub(X, Y, Z).
            """
        )
        env = infer_interargument_constraints(program)
        poly = env.get(("sub", 3))
        assert poly.entails_constraint(
            Constraint.eq(dim(1), dim(2) + dim(3))
        )


class TestPartition:
    def test_quicksort_partition(self):
        program = parse_program(
            """
            part([], _, [], []).
            part([Y|Ys], X, [Y|L], G) :- Y =< X, part(Ys, X, L, G).
            part([Y|Ys], X, L, [Y|G]) :- X < Y, part(Ys, X, L, G).
            """
        )
        env = infer_interargument_constraints(program)
        poly = env.get(("part", 4))
        assert poly.entails_constraint(
            Constraint.eq(dim(1), dim(3) + dim(4))
        )


class TestExternalConstraints:
    def test_external_entries_trusted(self, perm_program):
        external = SizeEnvironment()
        external.set_from_constraints(
            ("append", 3),
            [Constraint.eq(dim(1) + dim(2), dim(3))],
        )
        env = infer_interargument_constraints(
            perm_program, external=external
        )
        # The supplied entry is used verbatim (not re-derived).
        assert env.get(("append", 3)).entails_constraint(
            Constraint.eq(dim(1) + dim(2), dim(3))
        )


class TestSoundness:
    """Inferred polyhedra must contain the sizes of actual answers."""

    @pytest.mark.parametrize(
        "text,query,indicator",
        [
            (
                "append([], Ys, Ys).\n"
                "append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).",
                "append([a, b], [c], Z)",
                ("append", 3),
            ),
            (
                "less(0, s(_)).\nless(s(X), s(Y)) :- less(X, Y).",
                "less(s(0), s(s(s(0))))",
                ("less", 2),
            ),
        ],
    )
    def test_answer_sizes_inside_polyhedron(self, text, query, indicator):
        from repro.lp import SLDEngine, parse_query
        from repro.lp.unify import apply_subst, unify
        from repro.sizes.norms import STRUCTURAL

        program = parse_program(text)
        env = infer_interargument_constraints(program)
        poly = env.get(indicator)

        engine = SLDEngine(program)
        result = engine.solve(query)
        assert result.succeeded
        (goal,) = parse_query(query)
        for solution in result.solutions:
            bound_goal = goal
            for var, term in solution.items():
                bound_goal = apply_subst(
                    bound_goal, {var: term}
                )
            sizes = {
                arg_dimension(i + 1): STRUCTURAL.ground_size(arg)
                for i, arg in enumerate(bound_goal.args)
            }
            assert poly.contains_point(sizes)


class TestSettings:
    def test_widening_cap_terminates(self):
        # count(N) :- count(s(N)) has no finite fixpoint without
        # widening: sizes of derivable... actually there are no
        # derivable facts at all (no base case) — bottom is the
        # fixpoint and iteration stops immediately.
        program = parse_program("c(N) :- c(s(N)).")
        env = infer_interargument_constraints(program)
        assert env.get(("c", 1)).is_empty()

    def test_growing_facts_widened(self, monkeypatch):
        # nat(0). nat(s(N)) :- nat(N).  Sizes are unbounded; widening
        # must terminate with arg1 >= 0.
        from repro.interarg import inference

        monkeypatch.setattr(inference, "WIDEN_AFTER", 2)
        program = parse_program("nat(0).\nnat(s(N)) :- nat(N).")
        env = infer_interargument_constraints(program)
        poly = env.get(("nat", 1))
        assert not poly.is_empty()
        assert poly.contains_point({arg_dimension(1): 1000})

    def test_max_iterations_fallback_sound(self, monkeypatch):
        from repro.interarg import inference

        monkeypatch.setattr(inference, "WIDEN_AFTER", 99)
        monkeypatch.setattr(inference, "MAX_ITERATIONS", 3)
        program = parse_program("nat(0).\nnat(s(N)) :- nat(N).")
        env = infer_interargument_constraints(program)
        poly = env.get(("nat", 1))
        # Fallback: plain nonnegative orthant.
        assert poly.contains_point({arg_dimension(1): 12345})


class TestWeakJoin:
    FLATTEN = """
        append([], Ys, Ys).
        append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).
        flatten(leaf(X), [X]).
        flatten(node(L, R), F) :- flatten(L, FL), flatten(R, FR),
                                  append(FL, FR, F).
    """

    def test_flatten_keeps_the_list_bound(self):
        """The leaf clause projects to ``arg1 >= 1, arg2 = arg1 + 1``,
        which names no ``arg2`` row; the weak join still finds the
        flattened list's bound ``arg2 >= 2``."""
        env = infer_interargument_constraints(
            parse_program(self.FLATTEN), "structural",
            settings=InferenceSettings(join_strategy="weak"),
        )
        poly = env.get(("flatten", 2))
        assert poly.entails_constraint(Constraint.ge(dim(2), 2))
        assert poly.entails_constraint(Constraint.ge(dim(1), 1))


class TestWideArity:
    """Predicates of arity 10 or more: ``("arg", 10)`` sorts before
    ``("arg", 2)`` by ``repr``, which once made clause polyhedra
    disagree with the predicate's dimension order."""

    WIDE = (
        "r(%s).\nr(%s) :- r(%s).\n" % (
            ", ".join("0" for _ in range(10)),
            ", ".join("s(X%d)" % i for i in range(10)),
            ", ".join("X%d" % i for i in range(10)),
        )
    )

    def test_dimensions_stay_positional(self):
        facts = "r(%s).\nr(%s).\n" % (
            ", ".join("0" for _ in range(10)),
            ", ".join("s(0)" for _ in range(10)),
        )
        env = infer_interargument_constraints(parse_program(facts))
        poly = env.get(("r", 10))
        assert list(poly.dimensions) == [
            arg_dimension(i) for i in range(1, 11)
        ]
        assert poly.contains_point({arg_dimension(i): 1 for i in range(1, 11)})

    def test_wide8_infers_equal_arguments(self):
        """``r(s(X1), ..., s(X8)) :- r(X1, ..., X8).`` keeps every
        argument equal: ``arg1 = ... = arg8, arg1 >= 0``."""
        source = "r(%s).\nr(%s) :- r(%s).\n" % (
            ", ".join("0" for _ in range(8)),
            ", ".join("s(X%d)" % i for i in range(8)),
            ", ".join("X%d" % i for i in range(8)),
        )
        env = infer_interargument_constraints(
            parse_program(source), "structural"
        )
        poly = env.get(("r", 8))
        want = [Constraint.ge(dim(1))] + [
            Constraint.eq(dim(i), dim(1)) for i in range(2, 9)
        ]
        assert poly.equivalent(Polyhedron(poly.dimensions, want))

    def test_arity_ten_recursion_is_proved(self):
        from repro.core import analyze_program

        result = analyze_program(self.WIDE, ("r", 10), "b" * 10)
        assert result.status == "PROVED"


# -- the change-driven fixpoint ---------------------------------------------------


def _reference_solve_component(program, graph, members, env, norm, settings):
    """``_solve_component`` as a full recomputation: every round, and
    the narrowing step, evaluates every clause of every member (each
    step gets a fresh, empty memo)."""
    from repro.interarg.domain import bottom_polyhedron, default_polyhedron
    from repro.interarg.inference import (
        MAX_ITERATIONS, WIDEN_AFTER, _ClauseMemo, _overlay, _predicate_step,
    )

    def step(indicator, round_env):
        memo = _ClauseMemo(members, norm)
        return _predicate_step(program, indicator, round_env, memo, settings)

    current = {ind: bottom_polyhedron(ind) for ind in members}
    stable = False
    for iteration in range(MAX_ITERATIONS):
        proposal = {}
        round_env = _overlay(env, current)
        for indicator in members:
            proposal[indicator] = step(indicator, round_env)
        if iteration >= WIDEN_AFTER:
            proposal = {
                ind: current[ind].widen(proposal[ind]) for ind in members
            }
        if all(
            proposal[ind].equivalent(current[ind]) for ind in members
        ):
            stable = True
            break
        current = proposal

    if not stable:
        for indicator in members:
            env.set(indicator, default_polyhedron(indicator))
        return

    round_env = _overlay(env, current)
    descended = {ind: step(ind, round_env) for ind in members}
    if all(descended[ind].entails(current[ind]) for ind in members):
        current = descended

    for indicator in members:
        env.set(indicator, current[indicator])


def _ring(k):
    lines = ["p1(0)."]
    for i in range(1, k + 1):
        lines.append("p%d(s(X)) :- p%d(X)." % (i, i % k + 1))
    return "\n".join(lines)


def _chain(k):
    lines = []
    for i in range(1, k + 1):
        lines.append("q%d([], [])." % i)
        if i < k:
            lines.append("q%d([X|Xs], [X|Ys]) :- q%d(Xs, Zs), q%d(Zs, Ys)."
                         % (i, i, i + 1))
        else:
            lines.append("q%d([X|Xs], [X|Ys]) :- q%d(Xs, Ys)." % (i, i))
    return "\n".join(lines)


def _iterate_sources():
    from repro.corpus import all_programs

    sources = [(entry.name, entry.source) for entry in all_programs()]
    return sources + [("ring8", _ring(8)), ("chain8", _chain(8))]


def _rows(poly):
    return poly.dimensions, [repr(row) for row in poly.system]


class TestChangeDrivenFixpoint:
    def test_installs_what_full_recomputation_installs(self):
        """Every recursive SCC of the corpus and of ring(8)/chain(8):
        same polyhedra, same rows, same row order."""
        from repro.interarg.inference import _is_recursive, _solve_component
        from repro.sizes.norms import get_norm

        norm = get_norm("structural")
        settings = InferenceSettings()
        compared = 0
        for name, source in _iterate_sources():
            program = parse_program(source)
            graph = program.dependency_graph()
            env = SizeEnvironment()
            for component in program.sccs():
                members = [
                    ind for ind in component
                    if program.predicate(*ind) is not None
                ]
                if not members:
                    continue
                if _is_recursive(graph, members):
                    reference = env.copy()
                    _reference_solve_component(
                        program, graph, members, reference, norm, settings
                    )
                    _solve_component(
                        program, graph, members, env, norm, settings
                    )
                    for ind in members:
                        assert _rows(env.get(ind)) == _rows(
                            reference.get(ind)
                        ), (name, ind)
                    compared += 1
                else:
                    _solve_component(
                        program, graph, members, env, norm, settings
                    )
        assert compared == 70  # recursive SCCs across the 44 programs

    def test_installed_polyhedra_are_frozen(self, append_program):
        env = infer_interargument_constraints(append_program)
        with pytest.raises(TypeError, match="frozen"):
            env.get(("append", 3)).system.add(Constraint.ge(dim(1), 1))

    def test_memo_reuses_only_unchanged_callee_rows(self, append_program):
        from repro.interarg.domain import default_polyhedron
        from repro.interarg.inference import _ClauseMemo
        from repro.sizes.norms import get_norm

        indicator = ("append", 3)
        norm = get_norm("structural")
        recursive = append_program.clauses_for(indicator)[1]
        callee = default_polyhedron(indicator)
        env = SizeEnvironment()
        env.set(indicator, callee)
        memo = _ClauseMemo([indicator], norm)

        first = memo.contribution(indicator, 1, recursive, env)
        assert memo.contribution(indicator, 1, recursive, env) is first
        # A shared contribution cannot be changed behind the memo...
        with pytest.raises(TypeError, match="frozen"):
            first.system.add(Constraint.ge(dim(1), 1))
        # ...and a changed callee is seen: the clause is re-evaluated.
        callee.system.add(Constraint.ge(dim(1), 1))
        second = memo.contribution(indicator, 1, recursive, env)
        assert second is not first
        assert _rows(second) != _rows(first)


class TestSettingsKey:
    """One key identifies inference settings for both the process env
    cache and the SCC env certificates."""

    def test_every_field_is_in_the_key(self):
        import dataclasses

        base = InferenceSettings()
        for field in dataclasses.fields(InferenceSettings):
            value = getattr(base, field.name)
            changed = dataclasses.replace(
                base,
                **{field.name: value + "-other" if isinstance(value, str)
                   else value + 1},
            )
            assert changed.key() != base.key(), field.name
        assert len(base.key()) == len(dataclasses.fields(InferenceSettings))

    def test_key_is_the_pinned_tuple(self):
        # Fingerprints and store keys embed this tuple's repr.
        assert InferenceSettings().key() == ("exact",)
        assert InferenceSettings(join_strategy="weak").key() == ("weak",)
