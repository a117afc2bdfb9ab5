"""Unification, substitutions, and renaming apart.

Substitutions are plain dicts mapping :class:`~repro.lp.terms.Var` to
:class:`~repro.lp.terms.Term`.  They are kept *idempotent*: bindings are
fully dereferenced when recorded, so applying a substitution once fully
instantiates a term.
"""

from __future__ import annotations

import itertools
import operator

from repro.lp.terms import Atom, Struct, Term, Var


def apply_subst(term, subst):
    """Return *term* with every bound variable replaced, recursively."""
    if isinstance(term, Var):
        bound = subst.get(term)
        if bound is None:
            return term
        # Idempotent substitutions make this a single step, but tolerate
        # chains produced by hand-built substitutions.
        return apply_subst(bound, subst) if bound != term else term
    if isinstance(term, Struct):
        new_args = tuple(apply_subst(arg, subst) for arg in term.args)
        # Unchanged subterms come back as the same object, so identity
        # decides "unchanged" exactly -- and in O(arity), where ``==``
        # would recurse through the whole term at every level.
        if all(map(operator.is_, new_args, term.args)):
            return term
        return Struct(term.functor, new_args)
    return term


def apply_subst_literal(literal, subst):
    """Apply a substitution to a body literal, preserving polarity."""
    from repro.lp.program import Literal

    return Literal(apply_subst(literal.atom, subst), positive=literal.positive)


def apply_subst_clause(clause, subst):
    """Apply a substitution to a whole clause."""
    from repro.lp.program import Clause

    return Clause(
        head=apply_subst(clause.head, subst),
        body=tuple(apply_subst_literal(lit, subst) for lit in clause.body),
    )


def compose_subst(first, second):
    """Composition: applying the result equals applying *first* then
    *second*."""
    composed = {
        var: apply_subst(term, second) for var, term in first.items()
    }
    for var, term in second.items():
        if var not in composed:
            composed[var] = term
    # Drop trivial bindings x -> x.
    return {var: term for var, term in composed.items() if term != var}


def occurs_in(var, term, subst):
    """True if *var* occurs in *term* under *subst*."""
    # Dereference node by node: every subterm is visited once, where
    # applying the substitution at each node rebuilds its whole subtree.
    stack = [term]
    while stack:
        current = _walk(stack.pop(), subst)
        if isinstance(current, Var):
            if current == var:
                return True
        elif isinstance(current, Struct):
            stack.extend(current.args)
    return False


def match(general, specific):
    """One-way matching: the substitution ``theta`` over *general*'s
    variables with ``substitute(general, theta) == specific``, or None
    when *specific* is not an instance of *general* (variants included).

    *specific*'s variables act as constants, so the two terms may share
    variables (the head and body of one clause, say).
    """
    theta = {}
    stack = [(general, specific)]
    while stack:
        g, s = stack.pop()
        if isinstance(g, Var):
            if theta.setdefault(g, s) != s:
                return None
        elif isinstance(g, Struct):
            if not (isinstance(s, Struct) and s.functor == g.functor
                    and len(s.args) == len(g.args)):
                return None
            stack.extend(zip(g.args, s.args))
        elif g != s:
            return None
    return theta


def substitute(term, mapping):
    """Replace each variable of *term* by its image under *mapping*, all
    at once: unlike :func:`apply_subst`, an image is never substituted
    into again, so *mapping* may send variables to terms over the same
    variables (``X -> Y, Y -> X`` swaps them)."""
    if isinstance(term, Var):
        return mapping.get(term, term)
    if isinstance(term, Struct):
        return Struct(
            term.functor, tuple(substitute(a, mapping) for a in term.args)
        )
    return term


def unify(left, right, subst=None, occurs_check=True):
    """Unify two terms; return the extended substitution or None.

    The input substitution is never mutated.  With ``occurs_check=False``
    the function mimics standard Prolog (and can build cyclic bindings —
    callers of the engine accept that trade-off for speed).
    """
    subst = dict(subst) if subst else {}
    if _unify_into(left, right, subst, occurs_check):
        return subst
    return None


def _unify_into(left, right, subst, occurs_check):
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        a = _walk(a, subst)
        b = _walk(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs_check and occurs_in(a, b, subst):
                return False
            _bind(a, b, subst)
            continue
        if isinstance(b, Var):
            if occurs_check and occurs_in(b, a, subst):
                return False
            _bind(b, a, subst)
            continue
        if isinstance(a, Atom) or isinstance(b, Atom):
            return False  # distinct constants, or constant vs compound
        if a.functor != b.functor or a.arity != b.arity:
            return False
        stack.extend(zip(a.args, b.args))
    return True


def _walk(term, subst):
    """Dereference a variable to its binding's root."""
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    return term


def _bind(var, term, subst):
    """Record var -> term and re-normalize to keep idempotence."""
    # Fully instantiate the value first (walk only dereferenced the
    # root; inner variables may already be bound).
    term = apply_subst(term, subst)
    subst[var] = term
    # Substitute the new binding into existing ones so that every value
    # is fully dereferenced (idempotent substitution invariant).
    single = {var: term}
    for existing in list(subst):
        if existing != var:
            subst[existing] = apply_subst(subst[existing], single)


_rename_counter = itertools.count(1)


def rename_apart(clause, suffix=None):
    """Return a variant of *clause* with globally fresh variable names.

    Fresh variables are named ``<old>#<n>`` — the ``#`` cannot appear in
    parsed variable names, so collisions with source variables are
    impossible.
    """
    if suffix is None:
        suffix = next(_rename_counter)
    return apply_subst_clause(
        clause, _fresh_renaming(clause.variables(), suffix)
    )


def _fresh_renaming(variables, suffix):
    """Map each of *variables* to ``<base>#<suffix>``, where ``<base>``
    is its name up to any ``#``.  Variables sharing a base (``W`` and
    ``W#3``) get ``<base>#<suffix>.<k>`` after the first, so the
    renaming stays injective and the result stays a variant."""
    renaming = {}
    bases = {}
    for var in variables:
        base = var.name.split("#")[0]
        taken = bases.get(base, 0)
        bases[base] = taken + 1
        if taken:
            renaming[var] = Var("%s#%s.%d" % (base, suffix, taken))
        else:
            renaming[var] = Var("%s#%s" % (base, suffix))
    return renaming


def canonicalize_clause_variables(clause):
    """Rename a clause's variables to clean, parseable names.

    Fresh variables produced by :func:`rename_apart` look like
    ``X#61``; this maps each variable (in first-occurrence order) back
    to its base name, disambiguating collisions with numeric suffixes —
    so transformed programs round-trip through the parser.
    """
    taken = set()
    renaming = {}
    for var in clause.variables():
        base = var.name.split("#")[0] or "V"
        candidate = base
        ordinal = 1
        while candidate in taken:
            ordinal += 1
            candidate = "%s%d" % (base, ordinal)
        taken.add(candidate)
        if candidate != var.name:
            renaming[var] = Var(candidate)
    if not renaming:
        return clause
    return apply_subst_clause(clause, renaming)


def rename_term_apart(term, suffix=None):
    """Variant of a bare term with fresh variable names."""
    from repro.lp.terms import term_variables

    if suffix is None:
        suffix = next(_rename_counter)
    return apply_subst(term, _fresh_renaming(term_variables(term), suffix))
