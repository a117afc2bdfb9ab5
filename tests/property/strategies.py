"""Shared hypothesis strategies for terms, expressions, constraints."""

from fractions import Fraction

from hypothesis import strategies as st

from repro.lp.terms import Atom, Struct, Var, make_list
from repro.linalg.constraints import Constraint, ConstraintSystem, EQ, GE
from repro.linalg.linexpr import LinearExpr

ATOM_NAMES = ("a", "b", "c", "nil")
VAR_NAMES = ("X", "Y", "Z", "W")
FUNCTORS = (("f", 1), ("g", 2), ("h", 3), (".", 2))


def atoms():
    return st.sampled_from([Atom(name) for name in ATOM_NAMES])


def variables():
    return st.sampled_from([Var(name) for name in VAR_NAMES])


def terms(max_leaves=12, allow_vars=True):
    """Random terms built bottom-up over a fixed signature."""
    leaves = atoms() if not allow_vars else st.one_of(atoms(), variables())

    def extend(children):
        def build(args_and_functor):
            functor, arity = args_and_functor[0]
            return Struct(functor, tuple(args_and_functor[1]))

        return st.tuples(
            st.sampled_from(FUNCTORS),
            st.lists(children, min_size=1, max_size=3),
        ).map(
            lambda pair: Struct(
                pair[0][0],
                tuple(
                    (pair[1] + [Atom("a")] * pair[0][1])[: pair[0][1]]
                ),
            )
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def ground_terms(max_leaves=12):
    return terms(max_leaves=max_leaves, allow_vars=False)


def ground_lists(max_length=6):
    return st.lists(atoms(), max_size=max_length).map(make_list)


def fractions(max_num=6, max_den=3):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def linear_exprs(var_pool=("x", "y", "z"), max_terms=3):
    """Random small linear expressions with exact coefficients."""

    def build(items, const):
        coeffs = {}
        for name, coeff in items:
            coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
        return LinearExpr(coeffs, const)

    return st.builds(
        build,
        st.lists(
            st.tuples(st.sampled_from(var_pool), fractions()),
            max_size=max_terms,
        ),
        fractions(),
    )


def constraints(var_pool=("x", "y", "z")):
    return st.builds(
        Constraint,
        linear_exprs(var_pool),
        st.sampled_from([GE, EQ]),
    )


def constraint_systems(var_pool=("x", "y", "z"), max_rows=6):
    return st.lists(constraints(var_pool), max_size=max_rows).map(
        ConstraintSystem
    )


def assignments(var_pool=("x", "y", "z")):
    return st.fixed_dictionaries(
        {name: fractions(max_num=8) for name in var_pool}
    )


def pure_programs(max_clauses=4, min_body=0):
    """Small pure logic programs over ``p/1`` and ``q/1``.

    No cut, negation, or builtins — exactly the fragment where every
    registered termination method's verdict is sound, so cross-method
    properties (never PROVED *and* DISPROVED) can quantify over them.
    A ``p(a).`` fact is always appended so the root ``p/1`` is defined.
    With *min_body* ``1`` every drawn clause calls ``p`` or ``q``, so
    the program recurses and its binary clauses compose.
    """
    from repro.lp.program import Clause, Literal, Program

    heads = st.tuples(st.sampled_from(("p", "q")), terms(max_leaves=4))
    clauses = st.tuples(heads, st.lists(heads, min_size=min_body,
                                        max_size=2))

    def build(drawn):
        built = [
            Clause(
                head=Struct(name, (argument,)),
                body=tuple(
                    Literal(Struct(body_name, (body_argument,)))
                    for body_name, body_argument in body
                ),
            )
            for (name, argument), body in drawn
        ]
        built.append(Clause(head=Struct("p", (Atom("a"),))))
        return Program(tuple(built))

    return st.lists(clauses, max_size=max_clauses).map(build)
