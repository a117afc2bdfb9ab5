"""Bottom-up polyhedral fixpoint inferring inter-argument constraints.

For each SCC of the predicate dependency graph (processed lower SCCs
first), iterate the abstract immediate-consequence operator: each
clause contributes the projection, onto the head's argument-size
dimensions, of

  - the head argument size equations,
  - the instantiated size polyhedra of its positive body subgoals,
  - ``size = size`` links for positive equality subgoals,
  - nonnegativity of every logical-variable size;

clause contributions are joined (convex hull), and widening after a
delay guarantees termination.  One descending pass (the operator
applied once more without widening) recovers precision lost to
widening; its first step is the last ascending round's un-widened
result, which is exactly ``F(current)``, so it is reused rather than
recomputed.

Rounds are Jacobi-style and change-driven: inside one SCC a clause's
contribution is recomputed only when the rows of one of its same-SCC
callee polyhedra changed since the clause was last evaluated (lower
SCCs are fixed while an SCC is solved, and a clause with no same-SCC
callee is evaluated once).  Every iterate is the one a full
recomputation would produce; polyhedra shared across rounds are
frozen.

This derives the constraints the paper imports from [VG90]:
``append1 + append2 = append3`` for append, ``t1 >= 2 + t2`` for the
parser SCC, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.linalg.polyhedron import Polyhedron
from repro.sizes.norms import get_norm
from repro.sizes.size_equations import arg_dimension, atom_size_equations
from repro.interarg.domain import (
    SizeEnvironment,
    bottom_polyhedron,
    default_polyhedron,
    literal_constraints,
    variable_nonnegativity,
)


#: Ascending rounds before widening kicks in.
WIDEN_AFTER = 4

#: Hard cap on rounds; on hitting it the SCC's predicates fall back to
#: the sound nonnegative-orthant default.
MAX_ITERATIONS = 40

#: Iterate-complexity bound: polyhedra are weakened (rows dropped,
#: soundly) past this size so pathological predicates cannot stall the
#: fixpoint.
MAX_ROWS = 16


@dataclass
class InferenceSettings:
    """The fixpoint's one knob (exposed for the ablation bench).

    ``join_strategy`` — ``"exact"`` (convex hull; discovers new facet
    directions) or ``"weak"`` (constraint-candidate join; cheaper but
    cannot discover directions — loses e.g. the gcd pipeline).
    """

    join_strategy: str = "exact"

    def key(self):
        """Every field's value, in declaration order: the one identity
        the process env cache and the SCC env certificates are keyed
        on, so a new field can never alias two settings."""
        return tuple(getattr(self, f.name) for f in fields(self))


def infer_interargument_constraints(
    program, norm="structural", settings=None, external=None, cache=None
):
    """Infer a :class:`SizeEnvironment` for every predicate of *program*.

    *external* may carry a pre-populated :class:`SizeEnvironment` whose
    entries are trusted verbatim (the paper's externally supplied
    constraints); predicates present there are not re-analyzed.

    *cache* may carry a certificate cache (anything with ``get``/
    ``put``, see :mod:`repro.core.certcache`): each dependency-graph
    SCC's solved polyhedra are then stored under the SCC's canonical
    fingerprint and recalled on later runs — the incremental-analysis
    fast path, since this fixpoint dominates analysis wall time.  A
    fingerprint only matches when the SCC's clauses *and* the contents
    of every callee polyhedron it imports are unchanged, so a recalled
    entry is exactly what re-solving would produce.
    """
    norm = get_norm(norm)
    settings = settings or InferenceSettings()
    env = external.copy() if external is not None else SizeEnvironment()

    graph = program.dependency_graph()
    for component in program.sccs():
        members = [
            indicator
            for indicator in component
            if program.predicate(*indicator) is not None
            and not env.known(indicator)
        ]
        if not members:
            continue
        if cache is not None and _recall_component(
            program, members, env, norm, settings, cache
        ):
            continue
        _solve_component(program, graph, members, env, norm, settings)
        if cache is not None:
            _publish_component(program, members, env, norm, settings, cache)
    return env


def _component_fingerprint(program, members, env, norm, settings):
    from repro.core.fingerprint import env_scc_fingerprint

    return env_scc_fingerprint(
        program, members, env, norm.name, settings.key()
    )


def _recall_component(program, members, env, norm, settings, cache):
    """Install one SCC's polyhedra from the cache; False on a miss."""
    from repro.core.certcache import decode_env_entries
    from repro.obs import METRICS

    key, order = _component_fingerprint(
        program, members, env, norm, settings
    )
    payload = cache.get(key)
    decoded = (
        decode_env_entries(payload, order) if payload is not None else None
    )
    if decoded is None:
        if METRICS.enabled:
            METRICS.counter("scc.cache.env.miss").inc()
        return False
    for indicator, polyhedron in decoded.items():
        env.set(indicator, polyhedron)
    if METRICS.enabled:
        METRICS.counter("scc.cache.env.hit").inc()
    return True


def _publish_component(program, members, env, norm, settings, cache):
    """Store one freshly-solved SCC's polyhedra under its fingerprint."""
    from repro.core.certcache import encode_env_entries

    # Re-fingerprint after the solve: the key reads only *callee*
    # polyhedra (lower SCCs, solved before this one), so the key is
    # identical to the pre-solve one — recomputing just avoids
    # threading it through _solve_component.
    key, order = _component_fingerprint(
        program, members, env, norm, settings
    )
    cache.put(key, encode_env_entries(env, order), kind="env")


def _solve_component(program, graph, members, env, norm, settings):
    recursive = _is_recursive(graph, members)

    if not recursive:
        # A single non-recursive predicate needs exactly one evaluation.
        indicator = members[0]
        memo = _ClauseMemo(members, norm)
        env.set(indicator, _predicate_step(program, indicator, env, memo,
                                           settings))
        return

    memo = _ClauseMemo(members, norm)
    current = {ind: bottom_polyhedron(ind) for ind in members}
    stable = False
    for iteration in range(MAX_ITERATIONS):
        # Jacobi-style round: evaluate every member against the state
        # from the previous round (plus lower SCCs already in env).
        round_env = _overlay(env, current)
        stepped = {
            ind: _predicate_step(program, ind, round_env, memo, settings)
            for ind in members
        }
        proposal = stepped
        if iteration >= WIDEN_AFTER:
            proposal = {
                ind: current[ind].widen(stepped[ind]).freeze()
                for ind in members
            }
        if all(
            proposal[ind].equivalent(current[ind]) for ind in members
        ):
            stable = True
            break
        current = proposal

    if not stable:
        # Sound fallback: sizes are nonnegative, nothing more.
        for indicator in members:
            env.set(indicator, default_polyhedron(indicator))
        return

    # The last round left ``current`` unchanged, so its un-widened
    # ``stepped`` is F(current): the descending step.  Keep it only if
    # it stays a sound fixpoint (F(stepped) must be below stepped).
    if all(stepped[ind].entails(current[ind]) for ind in members):
        current = stepped

    for indicator in members:
        env.set(indicator, current[indicator])


class _ClauseMemo:
    """Each clause's last contribution inside one SCC's fixpoint.

    A contribution is a function of the clause, the lower SCCs (fixed
    while the SCC is solved), and the rows of its same-SCC callee
    polyhedra.  The memo keeps, per clause, those rows as of its last
    evaluation and the (frozen) contribution computed from them, and
    recomputes only when the rows differ.
    """

    def __init__(self, members, norm):
        self._members = frozenset(members)
        self._norm = norm
        self._entries = {}

    def contribution(self, indicator, position, clause, env):
        """The clause's weakened polyhedron against *env*."""
        key = tuple(
            env.get(literal.indicator).system.constraints
            for literal in clause.body
            if literal.positive and literal.indicator in self._members
        )
        entry = self._entries.get((indicator, position))
        if entry is not None and entry[0] == key:
            return entry[1]
        contribution = _clause_polyhedron(clause, env, self._norm)
        contribution = contribution.weakened(MAX_ROWS).freeze()
        self._entries[indicator, position] = (key, contribution)
        return contribution


def _overlay(env, overrides):
    overlay = env.copy()
    for indicator, poly in overrides.items():
        overlay.set(indicator, poly)
    return overlay


def _is_recursive(graph, members):
    if len(members) > 1:
        return True
    node = members[0]
    return graph.has_node(node) and graph.has_edge(node, node)


def _predicate_step(program, indicator, env, memo, settings):
    """One application of the abstract consequence operator, with
    clause contributions from *memo*; the result is frozen."""
    result = bottom_polyhedron(indicator)
    for position, clause in enumerate(program.clauses_for(indicator)):
        contribution = memo.contribution(indicator, position, clause, env)
        if settings.join_strategy == "weak":
            if result.is_empty():
                result = contribution
            elif not contribution.is_empty():
                result = result.join_weak(contribution)
        else:
            result = result.join(contribution)
    return result.weakened(MAX_ROWS).freeze()


def _clause_polyhedron(clause, env, norm):
    """Project one clause's size constraints onto its head dimensions;
    an empty clause system projects to a contradiction row (no LP)."""
    _, arity = clause.indicator
    head_dims = tuple(arg_dimension(i) for i in range(1, arity + 1))

    constraints = list(atom_size_equations(clause.head, norm))
    atoms = [clause.head]
    for literal in clause.body:
        if not literal.positive:
            continue  # negative subgoals bind nothing (Appendix D)
        atoms.append(literal.atom)
        body_constraints = literal_constraints(literal, env, norm)
        if body_constraints is None:
            return bottom_polyhedron(clause.indicator)
        constraints.extend(body_constraints)
    constraints.extend(variable_nonnegativity(atoms, norm))

    projected = Polyhedron(
        _all_variables(constraints, head_dims), constraints
    ).project(head_dims)
    if projected.system.has_contradiction_row():
        return bottom_polyhedron(clause.indicator)
    return projected


def _all_variables(constraints, head_dims):
    """The clause polyhedron's dimensions: *head_dims* first, in
    positional order, then every other variable sorted by ``repr``.

    Projection keeps the surviving dimensions in this order, so the
    result lines up with :func:`bottom_polyhedron` — sorting
    ``("arg", 10)`` by ``repr`` would put it before ``("arg", 2)``.
    """
    names = set()
    for constraint in constraints:
        names |= constraint.variables()
    return list(head_dims) + sorted(names - set(head_dims), key=repr)
