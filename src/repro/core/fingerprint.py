"""Canonical, rename-invariant SCC fingerprints for incremental analysis.

The unit of caching in the incremental pipeline is the SCC, so the
cache key must be a *content address of everything an SCC's analysis
reads* — and nothing else.  Two fingerprints are computed here (plus
:func:`program_fingerprint`, the whole-program key of the
inter-argument environment cache):

:func:`env_scc_fingerprint`
    identifies one SCC of the predicate dependency graph for the
    inter-argument fixpoint (:mod:`repro.interarg.inference`).  It
    covers the SCC's own clauses, the *content* of every callee
    polyhedron the clauses import, the norm, and the inference
    settings.

:func:`scc_certificate_fingerprint`
    identifies one recursive SCC of the *adorned* graph for the
    termination stages (rule_systems → certify).  It covers the
    member clauses under their adornments, the content of every
    environment polyhedron the rule systems import (members included —
    nonlinear recursion imports them too, Section 6.2), and the
    settings the SCC stages read.

Both are invariant under:

- **variable renaming** — clause variables are alpha-numbered in
  first-occurrence order;
- **predicate renaming** — member predicates are replaced by canonical
  labels computed by color refinement (below), builtins keep their
  names, and non-member callees are replaced by a digest of their
  polyhedron *content* (which mentions no names at all);
- **clause reordering** — each member's rendered clause multiset is
  sorted.

Replacing callee references by polyhedron-content tokens also gives
the invalidation rule its *firewall* semantics: editing (or renaming)
a lower predicate invalidates a downstream SCC only when the edit
actually changes the lower predicate's proved inter-argument relation.

Canonical member labels come from Weisfeiler–Leman-style color
refinement: every member starts with the digest of its own clause
multiset (member references uniformized), then each round folds the
current colors of referenced members in; after ``len(members) + 1``
rounds the coloring is stable.  Members are ordered by final color;
members that still tie are structurally symmetric, so either tie
order renders the identical canonical text.
"""

from __future__ import annotations

import hashlib

from repro.lp.program import BUILTIN_PREDICATES
from repro.lp.terms import Struct, Var

__all__ = [
    "ENV_KEY_PREFIX",
    "CERT_KEY_PREFIX",
    "canonical_polyhedron",
    "env_scc_fingerprint",
    "program_fingerprint",
    "scc_certificate_fingerprint",
]

#: Key-format versions; bump when the canonical text layout changes so
#: stale cached entries become unreachable instead of wrong.
ENV_KEY_PREFIX = "env1:"
CERT_KEY_PREFIX = "scc1:"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_polyhedron(polyhedron):
    """Order-independent canonical text of a polyhedron's constraints.

    Rows are already canonically scaled by :class:`Constraint`; the
    dimensions are positional ``("arg", i)`` names, so the rendering
    mentions no predicate or variable names — a renamed program yields
    byte-identical polyhedron text.
    """
    rows = []
    for constraint in polyhedron.system:
        coefficients = ",".join(
            "%d:%s" % (var[1], coeff)
            for var, coeff in constraint.expr.items()
        )
        rows.append(
            "%s|%s|%s" % (constraint.relation, coefficients,
                          constraint.expr.const)
        )
    return "%d;%s" % (len(polyhedron.dimensions), ";".join(sorted(rows)))


def _polyhedron_token(env, indicator):
    """Content token for a non-member callee: its arity plus a digest
    of its environment polyhedron."""
    return "x%d:%s" % (
        indicator[1], _digest(canonical_polyhedron(env.get(indicator)))[:16]
    )


def _canonical_term(term, names):
    """Alpha-numbered term rendering."""
    if isinstance(term, Var):
        index = names.get(term.name)
        if index is None:
            index = names[term.name] = len(names)
        return "_%d" % index
    if isinstance(term, Struct):
        return "%s(%s)" % (
            term.functor,
            ",".join(_canonical_term(arg, names) for arg in term.args),
        )
    return str(term)


def _render_clause(clause, head_token, reference_token):
    """One clause as canonical text.

    *head_token* stands in for the clause's own predicate;
    *reference_token(position, literal)* supplies the token for each
    body literal's predicate.  Data functors inside argument terms are
    left alone: a predicate rename rewrites predicate positions, not
    term constructors.
    """
    names = {}
    head = "%s(%s)" % (
        head_token,
        ",".join(_canonical_term(arg, names) for arg in clause.head_args),
    )
    body = []
    for position, literal in enumerate(clause.body):
        args = ",".join(
            _canonical_term(arg, names) for arg in literal.args
        )
        body.append(
            "%s%s(%s)"
            % ("" if literal.positive else "\\+",
               reference_token(position, literal), args)
        )
    return head + ":-" + ",".join(body)


def program_fingerprint(program):
    """Alpha-invariant identity of a program's clauses.

    Variables are numbered per clause in first-occurrence order, so two
    parses of the same source — whose anonymous ``_`` variables get
    distinct gensym names — fingerprint identically.  Mode declarations
    do not participate: they steer drivers, not the analysis itself.
    """
    def indicator_token(_position, literal):
        return "%s/%d" % literal.indicator

    return "\n".join(
        _render_clause(clause, "%s/%d" % clause.indicator, indicator_token)
        for clause in program.clauses
    )


def _refine_members(render_member):
    """Color-refine a member set into a canonical order.

    *render_member* is ``{member: render(tokens) -> str}`` where
    *tokens* maps members to their current colors.  Returns the
    members ordered by final color (ties are symmetric — see module
    docstring).
    """
    members = list(render_member)
    colors = {member: "M" for member in members}
    for _ in range(len(members) + 1):
        colors = {
            member: _digest(colors[member] + "|" +
                            render_member[member](colors))
            for member in members
        }
    return sorted(members, key=lambda member: colors[member])


def _canonical_scc_text(render_member, describe_member):
    """Shared skeleton: refine, then render each member in canonical
    order under its final ``m<i>`` label."""
    order = _refine_members(render_member)
    labels = {member: "m%d" % i for i, member in enumerate(order)}
    blocks = [
        "%s{%s}%s"
        % (labels[member], render_member[member](labels),
           describe_member(member))
        for member in order
    ]
    return "\n".join(blocks), order


def env_scc_fingerprint(program, members, env, norm_name, inference_key):
    """Content address of one dependency-graph SCC for the
    inter-argument fixpoint.

    *members* — the SCC's predicate indicators.  *env* — the
    :class:`~repro.interarg.domain.SizeEnvironment` holding the
    already-solved lower SCCs.  *inference_key* — the hashable
    inference-settings tuple.

    Returns ``(key, canonical_member_order)``; the order fixes how a
    cached entry's polyhedra map back onto the (possibly renamed)
    current members.
    """
    member_set = set(members)

    def clause_renderer(member):
        def render(tokens):
            def reference_token(_position, literal):
                indicator = literal.indicator
                if indicator in member_set:
                    return tokens[indicator]
                if indicator in BUILTIN_PREDICATES:
                    return "b:%s/%d" % indicator
                return _polyhedron_token(env, indicator)
            rendered = sorted(
                _render_clause(clause, "self", reference_token)
                for clause in program.clauses_for(member)
            )
            return "&".join(rendered)
        return render

    render_member = {member: clause_renderer(member) for member in members}
    text, order = _canonical_scc_text(
        render_member, lambda member: "/%d" % member[1]
    )
    material = "env|norm=%s|inference=%r|%s" % (norm_name, inference_key, text)
    return ENV_KEY_PREFIX + _digest(material), order


def scc_certificate_fingerprint(program, members, env, settings_key):
    """Content address of one recursive adorned SCC for the
    termination stages.

    *members* — the SCC's :class:`~repro.core.adornment.AdornedPredicate`
    nodes.  *env* — the inferred size environment (member polyhedra
    included: preceding recursive subgoals import them).
    *settings_key* — the hashable tuple of every analyzer knob the SCC
    stages read (norm, theta mode, ``w`` elimination, method).

    Returns ``(key, canonical_member_order)``.
    """
    from repro.core.adornment import clause_call_adornments

    by_pair = {(node.indicator, node.adornment): node for node in members}

    def clause_renderer(member):
        def render(tokens):
            rendered = []
            for clause in program.clauses_for(member.indicator):
                adornments = clause_call_adornments(
                    clause, member.adornment
                )

                def reference_token(position, literal):
                    indicator = literal.indicator
                    if indicator in BUILTIN_PREDICATES:
                        return "b:%s/%d" % indicator
                    callee = by_pair.get(
                        (indicator, adornments[position])
                    )
                    if callee is not None:
                        # A member reference: its current color plus
                        # its polyhedron content (preceding recursive
                        # subgoals import member polyhedra too).
                        return "%s~%s" % (
                            tokens[callee],
                            _polyhedron_token(env, indicator),
                        )
                    return _polyhedron_token(env, indicator)

                rendered.append(
                    _render_clause(clause, "self", reference_token)
                )
            return "&".join(sorted(rendered))
        return render

    render_member = {member: clause_renderer(member) for member in members}
    text, order = _canonical_scc_text(
        render_member,
        lambda member: "/%d^%s" % (member.arity, member.adornment),
    )
    material = "scc|settings=%r|%s" % (settings_key, text)
    return CERT_KEY_PREFIX + _digest(material), order
