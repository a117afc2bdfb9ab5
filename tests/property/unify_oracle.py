"""The earlier substitution primitives, kept as a test oracle.

``apply_subst`` decided "unchanged" by comparing argument tuples with
``==`` (a deep recursion at every level), and ``occurs_in`` applied the
whole substitution at every node it visited.  Both are quadratic on
deep terms; :mod:`repro.lp.unify` now decides "unchanged" by identity
and dereferences node by node.  The properties in
``test_unify_props.py`` check that the results are the same.
"""

from repro.lp.terms import Struct, Var


def apply_subst(term, subst):
    """Return *term* with every bound variable replaced, recursively."""
    if isinstance(term, Var):
        bound = subst.get(term)
        if bound is None:
            return term
        return apply_subst(bound, subst) if bound != term else term
    if isinstance(term, Struct):
        new_args = tuple(apply_subst(arg, subst) for arg in term.args)
        if new_args == term.args:
            return term
        return Struct(term.functor, new_args)
    return term


def occurs_in(var, term, subst):
    """True if *var* occurs in *term* under *subst*."""
    stack = [term]
    while stack:
        current = apply_subst(stack.pop(), subst)
        if isinstance(current, Var):
            if current == var:
                return True
        elif isinstance(current, Struct):
            stack.extend(current.args)
    return False
