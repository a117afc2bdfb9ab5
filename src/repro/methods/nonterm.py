"""Non-termination detector: DISPROVED verdicts from looping derivations.

Two detectors, both sound for the leftmost (Prolog) selection rule the
paper analyzes:

**Static loop inference over binary unfoldings.**  Each clause
``H :- B1, ...`` whose first body literal ``B1`` is a positive user
predicate contributes the *leftmost binary clause* ``H <- B1`` — exact
for the first resolution step: calling an instance of ``H`` calls the
corresponding instance of ``B1`` next.  Composing binary clauses
through their most general unifiers (budgeted breadth-first, deduped
up to variable renaming) yields derived binary clauses ``H <- B``
describing multi-step leftmost call chains.  A *loop* is a derived
self-clause whose body is an **instance of its head** (``B = H·theta``,
variants included): by induction, every call matching ``H`` reaches —
in one or more resolution steps — another call matching ``H``, so every
instance of ``H`` heads an infinite derivation.  A derived clause of
the root whose body is an instance of some loop's head *reaches* that
loop: every call matching its head diverges too, and composition stops
there, since everything beyond it diverges already.  When such a head
has distinct, independent variables at the root mode's free positions,
any grounding of its bound positions is a mode-compliant diverging
query.

A static loop is a proof by itself; no SLD run confirms it.  Its
DISPROVED carries a :class:`~repro.core.certificate.LoopWitness` — the
indices of the composed clauses, ``H``, ``B``, ``theta`` and the query
(for a reached loop, the root's chain too) — and is emitted only after
:func:`repro.core.verifier.verify_loop` replays that witness against
the program text.

**Dynamic ancestor subsumption on the SLD engine.**  For loops the
first-literal restriction misses, a subclass of
:class:`~repro.lp.engine.SLDEngine` runs probe queries built from the
program's own ground terms.  It snapshots every user-predicate call
(current substitution applied, at call time) on an ancestor stack and
stops when the current call *subsumes* an open ancestor — the ancestor
is an instance of the current, strictly more general, goal.  By the
lifting lemma the more general goal can replay the clause sequence
that led from the ancestor to it, producing an ever-more-general
infinite chain: a real infinite branch of the SLD tree.  The stack
holds only *open* calls (entries are popped while a call's solution is
being consumed by its continuation and re-pushed on backtracking), so
sibling goals can never be mistaken for ancestors.

Both criteria argue "this branch of the SLD tree is infinite, and the
engine's depth-first search will walk it".  Cut breaks that argument
(``!`` can prune the looping branch), and so do negation and the
non-monotone builtins (``\\+``, ``==``, comparisons, ``is`` — a more
general goal can fail or error where the specific one succeeded,
invalidating the lifting replay).  The detector therefore refuses to
emit DISPROVED for programs that are not *pure* — any literal that is
negative, a cut, or a builtin other than ``=``/``true``/``fail``
gates the whole method to UNKNOWN.

Guarantee: ``DISPROVED`` means a mode-compliant query of the root
provably diverges (reason = the looping goal).  ``PROVED`` is never
emitted; programs whose loops stay out of reach of both detectors
come back UNKNOWN.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from repro.core.adornment import adorned_call_graph
from repro.core.analyzer import AnalyzerSettings
from repro.core.certificate import (
    DerivationWitness,
    LoopEntry,
    LoopWitness,
)
from repro.core.pipeline import (
    DISPROVED,
    UNKNOWN,
    AnalysisResult,
    AnalysisTrace,
    SCCResult,
)
from repro.core.verifier import VerificationError, is_pure_program, verify_loop
from repro.errors import EngineLimitError, UnificationError
from repro.lp.engine import SLDEngine
from repro.lp.program import BUILTIN_PREDICATES, Clause, Literal
from repro.lp.terms import Atom, Struct, Var, term_variables, terms_variables
from repro.lp.unify import (
    apply_subst,
    match,
    rename_apart,
    substitute,
    unify,
)
from repro.methods.base import TerminationMethod, register_method

#: Default budgets: derived binary clauses explored statically, and the
#: SLD engine's per-query hunt budgets.
DEFAULT_COMPOSE_LIMIT = 512
DEFAULT_ENGINE_STEPS = 20000
DEFAULT_ENGINE_DEPTH = 200
#: Derived binary clauses whose head+body exceed this many term nodes
#: are dropped — composition can otherwise grow terms without bound
#: (e.g. ackermann's nested successors).  Dropping candidates only
#: loses loops, never soundness.
DEFAULT_TERM_NODE_LIMIT = 200
#: Ground candidate terms tried per bound position when probing the
#: root with program-derived queries.
_PROBE_TERMS_PER_POSITION = 2
_PROBE_QUERY_LIMIT = 8

_LOOP_REASON = (
    "looping derivation: %s calls %s (instance of its own head); "
    "diverging witness query %s"
)
_REACH_REASON = (
    "looping derivation: %s calls %s and so reaches loop %s calls %s "
    "(instance of its own head); diverging witness query %s"
)


def is_instance_of(specific, general):
    """True when ``specific = general . theta`` for some substitution
    (variants included)."""
    return match(general, specific) is not None


# -- static loop inference ----------------------------------------------------


class BinaryClause(NamedTuple):
    """A derived leftmost binary clause ``head <- body`` and the program
    clause indices whose leftmost binary clauses compose to it."""

    head: object
    body: object
    chain: tuple


class StaticLoops(NamedTuple):
    """What the composition closure found: the ``loops`` (body an
    instance of the head) and the ``entries`` — ``(clause, loop)``
    pairs where a derived clause of the root calls an instance of the
    head of a loop."""

    loops: list
    entries: list


def _indicator(atom):
    if isinstance(atom, Struct):
        return (atom.functor, atom.arity)
    return (atom.name, 0)


def _term_nodes(term):
    count = 0
    stack = [term]
    while stack:
        current = stack.pop()
        count += 1
        if isinstance(current, Struct):
            stack.extend(current.args)
    return count


def _variant_key(head, body):
    names = {}

    def canonical(term):
        if isinstance(term, Var):
            index = names.setdefault(term.name, len(names))
            return "_%d" % index
        if isinstance(term, Struct):
            return "%s(%s)" % (
                term.functor, ",".join(canonical(a) for a in term.args)
            )
        return "a:%r" % (term.name,)

    return canonical(head) + "<-" + canonical(body)


def leftmost_binary_clauses(program):
    """The program's leftmost binary clauses ``H <- B1``."""
    pairs = []
    for index, clause in enumerate(program.clauses):
        if not clause.body:
            continue
        first = clause.body[0]
        if not first.positive:
            continue
        if first.indicator in BUILTIN_PREDICATES:
            continue
        pairs.append(BinaryClause(clause.head, first.atom, (index,)))
    return pairs


def _reached_loop(body, loops):
    """The first loop whose head *body* is an instance of, or None."""
    for loop in loops:
        if (_indicator(loop.head) == _indicator(body)
                and is_instance_of(body, loop.head)):
            return loop
    return None


def find_static_loops(program, compose_limit=DEFAULT_COMPOSE_LIMIT,
                      root=None):
    """Loops among the budgeted composition closure of the leftmost
    binary clauses, and the derived clauses of *root* that reach one.

    Sound: every instance of a loop's head diverges, and so does every
    instance of an entry's head.
    """
    base = leftmost_binary_clauses(program)
    by_indicator = {}
    for pair in base:
        by_indicator.setdefault(_indicator(pair.head), []).append(pair)
    seen = set()
    queue = []
    for pair in base:
        key = _variant_key(pair.head, pair.body)
        if key not in seen:
            seen.add(key)
            queue.append(pair)
    loops = []
    index = 0
    while index < len(queue) and index < compose_limit:
        pair = queue[index]
        head, body, chain = pair
        index += 1
        if _indicator(head) == _indicator(body) and is_instance_of(body, head):
            loops.append(pair)
            continue  # already a loop; composing further adds nothing
        if _reached_loop(body, loops) is not None:
            continue  # every call beyond this one diverges already
        for head2, body2, chain2 in by_indicator.get(_indicator(body), ()):
            renamed = rename_apart(Clause(head=head2, body=(Literal(body2),)))
            theta = unify(body, renamed.head, {}, occurs_check=True)
            if theta is None:
                continue
            derived = BinaryClause(
                apply_subst(head, theta),
                apply_subst(renamed.body[0].atom, theta),
                chain + chain2,
            )
            if (_term_nodes(derived.head) + _term_nodes(derived.body)
                    > DEFAULT_TERM_NODE_LIMIT):
                continue
            key = _variant_key(derived.head, derived.body)
            if key not in seen:
                seen.add(key)
                queue.append(derived)
    entries = []
    for pair in queue[:index]:
        if _indicator(pair.head) != root or pair in loops:
            continue
        loop = _reached_loop(pair.body, loops)
        if loop is not None:
            entries.append((pair, loop))
    return StaticLoops(loops, entries)


def _loop_witness(head, mode):
    """A mode-compliant diverging query from a loop head, or None.

    Free positions must be distinct variables disjoint from the bound
    positions (so grounding the bound part leaves them free); every
    variable reachable from a bound position is grounded with a fresh
    constant — any instance of the loop head diverges, so any
    grounding works.
    """
    args = head.args if isinstance(head, Struct) else ()
    if len(args) != len(mode):
        return None
    occurrences = {}
    for var in head.variables():
        occurrences[var] = occurrences.get(var, 0) + 1
    grounding = {}
    fresh = itertools.count()
    for arg, polarity in zip(args, mode):
        if polarity == "f":
            if not isinstance(arg, Var) or occurrences.get(arg, 0) != 1:
                return None
        else:
            for var in term_variables(arg):
                if var not in grounding:
                    grounding[var] = Atom("w%d" % next(fresh))
    for arg, polarity in zip(args, mode):
        if polarity == "f":
            if arg in grounding:
                return None  # bound grounding leaked into a free position
    return apply_subst(head, grounding)


def _canonical_reason(template, *terms):
    """Format *terms* into *template* with their variables numbered
    ``_0``, ``_1``, ... in first-occurrence order across all of them.

    Loop search renames clauses apart through a process-global counter;
    canonical numbering keeps a reason, and the payload carrying it,
    independent of what the process analyzed before.
    """
    renaming = {}
    for var in terms_variables(terms):
        renaming[var] = Var("_%d" % len(renaming))
    return template % tuple(substitute(term, renaming) for term in terms)


# -- dynamic ancestor subsumption ---------------------------------------------


class LoopFound(Exception):
    """Raised inside the hunting engine when the current call subsumes
    an open ancestor — evidence of an infinite SLD branch.  ``path``
    holds the clauses resolved from the query to the current call;
    the ancestor was called after the first ``start`` of them."""

    def __init__(self, goal, ancestor, path, start):
        super().__init__("looping derivation: %s recurs above %s"
                         % (ancestor, goal))
        self.goal = goal
        self.ancestor = ancestor
        self.path = path
        self.start = start


class LoopingSLDEngine(SLDEngine):
    """SLD engine instrumented with the ancestor-subsumption check.

    The ancestor stack tracks *open* calls only: a call's entry is
    removed while its solution is handed to the continuation (where
    sibling goals run) and restored when backtracking re-enters it —
    otherwise a sibling could be mistaken for an ancestor and the
    subsumption argument would not apply.
    """

    def __init__(self, program, occurs_check=False):
        super().__init__(program, occurs_check=occurs_check)
        self._ancestors = []

    def _call(self, atom, indicator, subst, depth):
        snapshot = apply_subst(atom, subst)
        size = _term_nodes(snapshot)
        for ancestor_indicator, ancestor_size, ancestor, start \
                in self._ancestors:
            # An instance is never smaller than the term it instantiates.
            if ancestor_indicator != indicator or ancestor_size < size:
                continue
            if is_instance_of(ancestor, snapshot):
                raise LoopFound(snapshot, ancestor, tuple(self._path), start)
        entry = (indicator, size, snapshot, len(self._path))
        inner = super()._call(atom, indicator, subst, depth)
        self._ancestors.append(entry)
        try:
            while True:
                try:
                    value = next(inner)
                except StopIteration:
                    return
                self._ancestors.pop()
                try:
                    yield value
                finally:
                    self._ancestors.append(entry)
        finally:
            self._ancestors.pop()


def hunt_looping_derivation(program, query_atom,
                            max_depth=DEFAULT_ENGINE_DEPTH,
                            max_steps=DEFAULT_ENGINE_STEPS):
    """Drive the instrumented engine at *query_atom*; the
    :class:`LoopFound` evidence, or None within budget."""
    engine = LoopingSLDEngine(program)
    try:
        engine.solve(
            [Literal(query_atom)], max_depth=max_depth, max_steps=max_steps
        )
    except LoopFound as loop:
        return loop
    except (EngineLimitError, UnificationError):
        return None
    return None


# -- the method ---------------------------------------------------------------


@register_method
class NonTerminationMethod(TerminationMethod):
    """Hunt for a looping derivation; three-valued DISPROVED/UNKNOWN."""

    name = "nonterm"
    cost = 30

    def __init__(self, compose_limit=DEFAULT_COMPOSE_LIMIT,
                 engine_steps=DEFAULT_ENGINE_STEPS,
                 engine_depth=DEFAULT_ENGINE_DEPTH):
        self.compose_limit = int(compose_limit)
        self.engine_steps = int(engine_steps)
        self.engine_depth = int(engine_depth)

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None, state=None):
        settings = settings or AnalyzerSettings()
        root = tuple(root)
        mode = str(mode)
        trace = AnalysisTrace()
        attrs = dict(root="%s/%d" % root, mode=mode, method=self.name)
        if request_id is not None:
            attrs["request_id"] = str(request_id)
        with trace.span("analyze", **attrs):
            graph, nodes = adorned_call_graph(program, root, mode)
            root_node = next(
                (node for node in nodes if node.indicator == root), None
            )
            members = (root_node,) if root_node is not None else ()
            if not is_pure_program(program):
                return self._result(
                    program, root, mode, UNKNOWN,
                    "program uses cut, negation, or a non-monotone "
                    "builtin; the loop criteria would be unsound under "
                    "pruning", None, members, nodes, settings, trace,
                )
            with trace.span("nonterm.static"):
                static = find_static_loops(
                    program, compose_limit=self.compose_limit, root=root
                )
            verdict = self._decide(program, root, mode, static, trace)
            if verdict is not None:
                status, reason, witness = verdict
            else:
                status, witness = UNKNOWN, None
                reason = (
                    "no looping derivation found within budget "
                    "(%d derived binary clauses, %d engine steps)"
                    % (self.compose_limit, self.engine_steps)
                )
            return self._result(
                program, root, mode, status, reason, witness, members,
                nodes, settings, trace,
            )

    def _result(self, program, root, mode, status, reason, witness,
                members, nodes, settings, trace):
        return AnalysisResult(
            program=program,
            root=root,
            root_mode=mode,
            status=status,
            scc_results=[SCCResult(
                members=members,
                status=status,
                reason=reason,
                method=self.name,
                witness=witness,
            )],
            nodes=tuple(nodes),
            environment=None,
            norm=settings.norm,
            trace=trace,
            method=self.name,
        )

    def _decide(self, program, root, mode, static, trace):
        """(status, reason, witness) when a loop disproves the root,
        else None."""
        # 1. A root loop with a mode-compliant query disproves outright.
        for loop in static.loops:
            if _indicator(loop.head) != root:
                continue
            query = _loop_witness(loop.head, mode)
            if query is None:
                continue
            witness = LoopWitness(
                chain=loop.chain, head=loop.head, body=loop.body,
                theta=match(loop.head, loop.body), query=query, mode=mode,
            )
            reason = _canonical_reason(
                _LOOP_REASON, loop.head, loop.body, query
            )
            return self._certified(program, witness, trace, reason)
        # 2. So does a root clause that calls into a loop.
        for pair, loop in static.entries:
            query = _loop_witness(pair.head, mode)
            if query is None:
                continue
            witness = LoopWitness(
                chain=loop.chain, head=loop.head, body=loop.body,
                theta=match(loop.head, loop.body), query=query, mode=mode,
                entry=LoopEntry(
                    chain=pair.chain, head=pair.head, body=pair.body,
                    sigma=match(loop.head, pair.body),
                ),
            )
            # The loop's variables are its own, even where the source
            # reuses a name: rename it apart before numbering.
            shown = rename_apart(
                Clause(head=loop.head, body=(Literal(loop.body),))
            )
            reason = _canonical_reason(
                _REACH_REASON, pair.head, pair.body, shown.head,
                shown.body[0].atom, query,
            )
            return self._certified(program, witness, trace, reason)
        # 3. Loops the static closure misses disprove only if a concrete
        #    root query demonstrably reaches one — probe with
        #    program-derived ground terms.
        for query in self._probe_queries(program, root, mode):
            with trace.span("nonterm.dynamic", query=str(query)):
                loop = hunt_looping_derivation(
                    program, query,
                    max_depth=self.engine_depth,
                    max_steps=self.engine_steps,
                )
            if loop is not None:
                index = {id(c): i for i, c in enumerate(program.clauses)}
                witness = DerivationWitness(
                    chain=tuple(index[id(c)] for c in loop.path),
                    start=loop.start, query=query, mode=mode,
                )
                reason = _canonical_reason(
                    "looping derivation under query %s: call %s subsumes "
                    "its open ancestor %s", query, loop.goal, loop.ancestor,
                )
                return self._certified(program, witness, trace, reason)
        return None

    @staticmethod
    def _certified(program, witness, trace, reason):
        """DISPROVED once :func:`verify_loop` accepts *witness*."""
        with trace.span("nonterm.verify"):
            try:
                verify_loop(program, witness)
            except VerificationError as error:
                return UNKNOWN, "loop witness rejected: %s" % error, None
        return DISPROVED, reason, witness

    def _probe_queries(self, program, root, mode):
        """Concrete root queries built from ground terms the program
        itself mentions (bound positions), free variables elsewhere."""
        ground_terms = []
        seen = set()
        for clause in program.clauses:
            atoms = [clause.head] + [lit.atom for lit in clause.body]
            for atom in atoms:
                for arg in (atom.args if isinstance(atom, Struct) else ()):
                    if arg.is_ground() and arg not in seen:
                        seen.add(arg)
                        ground_terms.append(arg)
        if not ground_terms:
            ground_terms = [Atom("w0")]
        candidates = ground_terms[:_PROBE_TERMS_PER_POSITION]
        name, arity = root
        position_choices = [
            candidates if polarity == "b" else [None] for polarity in mode
        ]
        queries = []
        for combo in itertools.product(*position_choices):
            if len(queries) >= _PROBE_QUERY_LIMIT:
                break
            args = []
            for position, term in enumerate(combo):
                if term is None:
                    args.append(Var("Q%d" % position))
                else:
                    args.append(term)
            queries.append(
                Struct(name, tuple(args)) if args else Atom(name)
            )
        return queries
