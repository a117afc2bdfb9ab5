"""Non-termination detector: DISPROVED verdicts from looping derivations.

Two cooperating detectors, both sound for the leftmost (Prolog)
selection rule the paper analyzes:

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
instance of ``H`` heads an infinite derivation.  When the loop head's
predicate is the analysis root and its free-mode positions are
distinct, independent variables, any grounding of the bound positions
is a mode-compliant diverging query — the exported witness.

**Dynamic ancestor subsumption on the SLD engine.**  A subclass of
:class:`~repro.lp.engine.SLDEngine` snapshots every user-predicate
call (current substitution applied, at call time) on an ancestor
stack and stops when the current call *subsumes* an open ancestor —
the ancestor is an instance of the current, strictly more general,
goal.  By the lifting lemma the more general goal can replay the
clause sequence that led from the ancestor to it, producing an
ever-more-general infinite chain: a real infinite branch of the SLD
tree.  The stack holds only *open* calls (entries are popped while a
call's solution is being consumed by its continuation and re-pushed
on backtracking), so sibling goals can never be mistaken for
ancestors.  The dynamic detector confirms static witnesses and hunts
loops the first-literal restriction misses, driving the engine's
existing depth/step budgets.

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

from repro.core.adornment import adorned_call_graph
from repro.core.analyzer import AnalyzerSettings
from repro.core.pipeline import (
    DISPROVED,
    UNKNOWN,
    AnalysisResult,
    AnalysisTrace,
    SCCResult,
)
from repro.errors import EngineLimitError, UnificationError
from repro.lp.engine import SLDEngine
from repro.lp.program import BUILTIN_PREDICATES, Clause, Literal
from repro.lp.terms import Atom, Struct, Var, term_variables, terms_variables
from repro.lp.unify import apply_subst, rename_apart, unify
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


# -- one-way matching ---------------------------------------------------------


def _match(general, specific, bindings):
    if isinstance(general, Var):
        bound = bindings.get(general)
        if bound is None:
            bindings[general] = specific
            return True
        return bound == specific
    if isinstance(general, Struct):
        return (
            isinstance(specific, Struct)
            and specific.functor == general.functor
            and len(specific.args) == len(general.args)
            and all(
                _match(g, s, bindings)
                for g, s in zip(general.args, specific.args)
            )
        )
    return general == specific


def is_instance_of(specific, general):
    """True when ``specific = general . theta`` for some substitution
    (variants included)."""
    return _match(general, specific, {})


# -- purity gate --------------------------------------------------------------

#: Builtins the loop criteria stay sound across: pure unification and
#: the constant outcomes.  Everything else (cut, negation, arithmetic,
#: term comparisons) can prune or reorder the looping branch.
_PURE_BUILTINS = frozenset({("=", 2), ("true", 0), ("fail", 0)})


def is_pure_program(program):
    """True when every body literal is positive and every builtin used
    is loop-criterion-safe (see module docstring)."""
    for clause in program.clauses:
        for literal in clause.body:
            if not literal.positive:
                return False
            indicator = literal.indicator
            if indicator in BUILTIN_PREDICATES:
                if indicator not in _PURE_BUILTINS:
                    return False
    return True


# -- static loop inference ----------------------------------------------------


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
    for clause in program.clauses:
        if not clause.body:
            continue
        first = clause.body[0]
        if not first.positive:
            continue
        if first.indicator in BUILTIN_PREDICATES:
            continue
        pairs.append((clause.head, first.atom))
    return pairs


def find_static_loops(program, compose_limit=DEFAULT_COMPOSE_LIMIT):
    """Loops among the budgeted composition closure of the leftmost
    binary clauses: derived pairs ``(H, B)`` with ``B`` an instance of
    ``H``.  Sound: every instance of ``H`` diverges."""
    base = leftmost_binary_clauses(program)
    by_indicator = {}
    for head, body in base:
        by_indicator.setdefault(_indicator(head), []).append((head, body))
    seen = set()
    queue = []
    for pair in base:
        key = _variant_key(*pair)
        if key not in seen:
            seen.add(key)
            queue.append(pair)
    loops = []
    explored = 0
    index = 0
    while index < len(queue) and explored < compose_limit:
        head, body = queue[index]
        index += 1
        explored += 1
        if _indicator(head) == _indicator(body) and is_instance_of(body, head):
            loops.append((head, body))
            continue  # already a loop; composing further adds nothing
        for head2, body2 in by_indicator.get(_indicator(body), ()):
            renamed = rename_apart(Clause(head=head2, body=(Literal(body2),)))
            theta = unify(body, renamed.head, {}, occurs_check=True)
            if theta is None:
                continue
            derived = (
                apply_subst(head, theta),
                apply_subst(renamed.body[0].atom, theta),
            )
            if (_term_nodes(derived[0]) + _term_nodes(derived[1])
                    > DEFAULT_TERM_NODE_LIMIT):
                continue
            key = _variant_key(*derived)
            if key not in seen:
                seen.add(key)
                queue.append(derived)
    return loops


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

    # One step per variable: apply_subst would chase a source
    # variable that is itself named ``_N`` into another number.
    def rename(term):
        if isinstance(term, Var):
            return renaming[term]
        if isinstance(term, Struct):
            return Struct(term.functor, tuple(rename(a) for a in term.args))
        return term

    return template % tuple(rename(term) for term in terms)


# -- dynamic ancestor subsumption ---------------------------------------------


class LoopFound(Exception):
    """Raised inside the hunting engine when the current call subsumes
    an open ancestor — evidence of an infinite SLD branch."""

    def __init__(self, goal, ancestor):
        super().__init__("looping derivation: %s recurs above %s"
                         % (ancestor, goal))
        self.goal = goal
        self.ancestor = ancestor


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
        for ancestor_indicator, ancestor in self._ancestors:
            if ancestor_indicator != indicator:
                continue
            if is_instance_of(ancestor, snapshot):
                raise LoopFound(snapshot, ancestor)
        entry = (indicator, snapshot)
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
                    "pruning", members, nodes, settings, trace,
                )
            with trace.span("nonterm.static"):
                loops = find_static_loops(
                    program, compose_limit=self.compose_limit
                )
            verdict = self._decide(program, root, mode, loops, trace)
            if verdict is not None:
                status, reason = verdict
            else:
                status, reason = UNKNOWN, (
                    "no looping derivation found within budget "
                    "(%d derived binary clauses, %d engine steps)"
                    % (self.compose_limit, self.engine_steps)
                )
            return self._result(
                program, root, mode, status, reason, members, nodes,
                settings, trace,
            )

    def _result(self, program, root, mode, status, reason, members, nodes,
                settings, trace):
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
            )],
            nodes=tuple(nodes),
            environment=None,
            norm=settings.norm,
            trace=trace,
            method=self.name,
        )

    def _decide(self, program, root, mode, loops, trace):
        """(status, reason) when a loop disproves the root, else None."""
        # 1. Static root loops with a mode-compliant witness disprove
        #    outright; the engine confirms when the budget allows.
        for head, body in loops:
            if _indicator(head) != root:
                continue
            witness = _loop_witness(head, mode)
            if witness is None:
                continue
            with trace.span("nonterm.dynamic", query=str(witness)):
                confirmed = hunt_looping_derivation(
                    program, witness,
                    max_depth=self.engine_depth,
                    max_steps=self.engine_steps,
                )
            reason = _canonical_reason(
                "looping derivation: %s calls %s (instance of its own "
                "head); diverging witness query %s",
                head, body, witness,
            )
            if confirmed:
                reason += " [confirmed by SLD engine]"
            return DISPROVED, reason
        # 2. Loops in other predicates (or mode-incompatible heads)
        #    disprove only if a concrete root query demonstrably
        #    reaches one — probe with program-derived ground terms.
        for query in self._probe_queries(program, root, mode):
            with trace.span("nonterm.dynamic", query=str(query)):
                loop = hunt_looping_derivation(
                    program, query,
                    max_depth=self.engine_depth,
                    max_steps=self.engine_steps,
                )
            if loop is not None:
                return DISPROVED, _canonical_reason(
                    "looping derivation under query %s: call %s subsumes "
                    "its open ancestor %s", query, loop.goal, loop.ancestor,
                )
        return None

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
