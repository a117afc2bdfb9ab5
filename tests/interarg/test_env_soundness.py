"""Inferred environments are post-fixpoints, checked with no FM, hull
or widening.

Every argsize proof rests on the [VG90] polyhedra that
:func:`infer_interargument_constraints` derives by projection, convex
hull, widening and weakening.  This check shares none of that: for
every clause of every inferred predicate and every row ``r`` of that
predicate's polyhedron, one LP shows that the clause's *unprojected*
system entails ``r``.  The system is

- the head's argument size equations,
- each positive body literal's callee polyhedron instantiated on its
  arguments (``size = size`` for ``=``; other builtins add nothing),
- nonnegativity of every logical-variable size.

A clause whose callee is empty carries that callee's ``-1 >= 0`` row,
so its system is infeasible and entails every row.  The mutation test
shows the check has teeth: tightening any one row of a nonempty
inferred polyhedron by 1 makes some clause of its predicate fail it.
"""

import pytest

from repro.corpus.registry import all_programs, load
from repro.interarg.domain import instantiate_on_args, variable_nonnegativity
from repro.interarg.inference import infer_interargument_constraints
from repro.linalg.constraints import Constraint
from repro.linalg.polyhedron import Polyhedron
from repro.linalg.simplex import entails
from repro.lp.parser import parse_program
from repro.lp.program import BUILTIN_PREDICATES
from repro.sizes.norms import get_norm
from repro.sizes.size_equations import atom_size_equations

NORMS = ("structural", "list_length", "right_spine")


def ring_program(k):
    """p1 -> p2 -> ... -> pk -> p1, the argument shrinking each hop."""
    lines = ["p1(0)."]
    for i in range(1, k + 1):
        lines.append("p%d(s(X)) :- p%d(X)." % (i, i % k + 1))
    return "\n".join(lines) + "\n"


def chain_program(k):
    """q1 calls q2 calls ... qk; each qi also recurses on a list."""
    lines = []
    for i in range(1, k + 1):
        lines.append("q%d([], [])." % i)
        if i < k:
            lines.append("q%d([X|Xs], [X|Ys]) :- q%d(Xs, Zs), q%d(Zs, Ys)."
                         % (i, i, i + 1))
        else:
            lines.append("q%d([X|Xs], [X|Ys]) :- q%d(Xs, Ys)." % (i, i))
    return "\n".join(lines) + "\n"


def wide_program(arity):
    """r(s(X1), ..., s(Xa)) :- r(X1, ..., Xa)."""
    head = ", ".join("s(X%d)" % i for i in range(arity))
    body = ", ".join("X%d" % i for i in range(arity))
    zeros = ", ".join("0" for _ in range(arity))
    return "r(%s).\nr(%s) :- r(%s).\n" % (zeros, head, body)


SCALING = {
    "ring8": ring_program(8),
    "chain8": chain_program(8),
    "wide6": wide_program(6),
}


def clause_system(clause, env, norm):
    """The clause's size constraints before any projection."""
    rows = list(atom_size_equations(clause.head, norm))
    atoms = [clause.head]
    for literal in clause.body:
        if not literal.positive:
            continue
        atoms.append(literal.atom)
        if literal.indicator in BUILTIN_PREDICATES:
            if literal.indicator[0] == "=":
                left, right = literal.atom.args
                rows.append(Constraint.eq(
                    norm.size_expr(left), norm.size_expr(right)
                ))
            continue
        rows.extend(instantiate_on_args(
            env.get(literal.indicator), literal.atom, norm
        ))
    rows.extend(variable_nonnegativity(atoms, norm))
    return rows


def violations(program, env, norm, indicators=None):
    """``(indicator, clause position, row)`` for every inferred row a
    clause's unprojected system does not entail."""
    found = []
    for indicator, polyhedron in env.items():
        if indicators is not None and indicator not in indicators:
            continue
        for position, clause in enumerate(program.clauses_for(indicator)):
            rows = clause_system(clause, env, norm)
            for row in polyhedron.system:
                if not entails(rows, row):
                    found.append((indicator, position, str(row)))
    return found


def _programs():
    programs = {entry.name: load(entry) for entry in all_programs()}
    for name, source in SCALING.items():
        programs[name] = parse_program(source)
    return programs


@pytest.fixture(scope="module")
def inferred():
    """``{(program name, norm name): (program, norm, environment)}``."""
    result = {}
    for name, program in _programs().items():
        for norm_name in NORMS:
            norm = get_norm(norm_name)
            env = infer_interargument_constraints(program, norm)
            result[name, norm_name] = (program, norm, env)
    return result


def test_every_program_and_norm_is_covered(inferred):
    assert len(inferred) == (42 + len(SCALING)) * len(NORMS)


@pytest.mark.parametrize("norm_name", NORMS)
def test_inferred_rows_are_entailed_by_every_clause(inferred, norm_name):
    unsound = {}
    checked = 0
    for (name, norm), (program, norm_obj, env) in sorted(inferred.items()):
        if norm != norm_name:
            continue
        checked += sum(len(poly.system) for _, poly in env.items())
        found = violations(program, env, norm_obj)
        if found:
            unsound[name] = found
    assert checked
    assert not unsound


@pytest.mark.parametrize("norm_name", NORMS)
def test_tightening_any_inferred_row_is_caught(inferred, norm_name):
    survivors = []
    mutations = 0
    for (name, norm), (program, norm_obj, env) in sorted(inferred.items()):
        if norm != norm_name:
            continue
        for indicator, polyhedron in env.items():
            if polyhedron.system.has_contradiction_row():
                continue  # empty: tightening -1 >= 0 changes nothing
            for row in polyhedron.system:
                tightened = Constraint(row.expr - 1, row.relation)
                mutated = env.copy()
                mutated.set(indicator, Polyhedron(
                    polyhedron.dimensions,
                    [tightened if other == row else other
                     for other in polyhedron.system],
                ))
                mutations += 1
                if not violations(program, mutated, norm_obj, {indicator}):
                    survivors.append((name, indicator, str(row)))
    assert mutations
    assert not survivors
