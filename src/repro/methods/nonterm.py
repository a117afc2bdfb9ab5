"""Non-termination detector: DISPROVED verdicts from static loops.

Sound for the leftmost (Prolog) selection rule the paper analyzes.

**Binary unfoldings.**  Each clause ``H :- L1, ..., Ln`` contributes,
for each positive user literal ``Li``, the binary clause
``H·sigma <- Li·sigma``, where ``sigma`` solves the prefix
``L1 ... L(i-1)`` in order: ``=`` by mgu (occurs check on), ``true`` by
skipping it, and each user literal by unifying it with a renamed unit
clause of the program, branching over the matching facts (at most
:data:`PREFIX_BRANCH_LIMIT` branches per clause).  When ``L1`` is the
call this is the *leftmost binary clause* ``H <- L1``.  These are
Codish–Taboch binary unfoldings whose answers come from the unit
clauses: calling an instance of ``H·sigma`` calls the corresponding
instance of ``Li·sigma`` next.  Composing binary clauses through their
most general unifiers (budgeted breadth-first over the clauses of the
predicates the root reaches, leftmost clauses first, deduped up to
variable renaming) yields derived binary clauses ``H <- B`` describing
multi-step call chains.

**Budgets.**  The closure explores at most :data:`COMPOSE_LIMIT`
derived clauses.  A binary clause of more than :data:`TERM_NODE_LIMIT`
term nodes is dropped, base and derived alike, and so is a prefix
branch that binds a variable to a larger term; the counts stop at the
limit, so a term that shares subterms costs no more than that to
reject.  Dropping a clause only loses loops.  A composition costs what
it changes: a derived clause reuses its parent's head, and that head's
canonical text, whenever the unifier leaves the head alone.  The
``nonterm.static`` span counts the clauses explored, composed and
dropped, and says whether the budget stopped the closure.

Two loop criteria read a derived self-clause ``H <- B``:

1. The body is an **instance of its head** (``B = H·theta``, variants
   included): by induction, every call matching ``H`` reaches another
   call matching ``H``, so every instance of ``H`` heads an infinite
   derivation.  A derived clause of the root whose body is an instance
   of such a loop's head *reaches* that loop: every call matching its
   head diverges too, and composition stops there, since everything
   beyond it diverges already.  When such a head has distinct,
   independent variables at the root mode's free positions, any
   grounding of its bound positions is a mode-compliant diverging
   query.
2. The head is an **instance of its body** (``H = B·theta``, Bol's
   subsumption check, e.g. ``p(a) <- p(Z)``): the call ``H`` itself
   calls the more general ``B``, which unifies with ``H`` again and,
   by the lifting lemma, replays the same steps forever.  Only ``H``
   itself is shown to diverge, so its bound positions must already be
   ground and its free ones distinct variables; grounding is never
   licensed (``append([X|Xs],Ys,[X|Zs]) <- append(Xs,Ys,Zs)`` passes
   the instance check, yet no ground instance of its head loops), and
   such a loop is never a reach target.

A static loop is a proof by itself; no SLD run confirms it.  Its
DISPROVED carries a :class:`~repro.core.certificate.LoopWitness` — the
indices of the composed clauses and of the unit clauses that solved
their prefixes, ``H``, ``B``, ``theta``, the criterion and the query
(for a reached loop, the root's chain too) — and is emitted only after
:func:`repro.core.verifier.verify_loop` replays that witness against
the program text.

Both criteria argue "this branch of the SLD tree is infinite, and the
depth-first search will walk it".  Cut breaks that argument (``!`` can
prune the looping branch), and so do negation and the non-monotone
builtins (``\\+``, ``==``, comparisons, ``is`` — a more general goal
can fail or error where the specific one succeeded, invalidating the
lifting argument).  The detector therefore refuses to emit DISPROVED
for programs that are not *pure* — any literal that is negative, a
cut, or a builtin other than ``=``/``true``/``fail`` gates the whole
method to UNKNOWN.

Guarantee: ``DISPROVED`` means a mode-compliant query of the root
provably diverges (reason = the looping goal).  ``PROVED`` is never
emitted; programs whose loops stay out of reach of the closure come
back UNKNOWN.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from repro.core.adornment import adorned_call_graph
from repro.core.certificate import LoopEntry, LoopWitness
from repro.core.pipeline import (
    DISPROVED,
    UNKNOWN,
    AnalysisResult,
    AnalysisTrace,
    AnalyzerSettings,
    SCCResult,
    resolve_settings,
)
from repro.core.verifier import VerificationError, is_pure_program, verify_loop
from repro.lp.program import BUILTIN_PREDICATES
from repro.lp.terms import Atom, Struct, Var, term_variables, terms_variables
from repro.lp.unify import (
    apply_subst,
    match,
    rename_apart,
    rename_term_apart,
    substitute,
    unify,
)
from repro.methods.base import TerminationMethod

#: Derived binary clauses the closure explores.
COMPOSE_LIMIT = 512
#: Binary clauses, base or derived, whose head+body exceed this many
#: term nodes are dropped, and so are prefix branches that bind a
#: variable to a larger term — composition and prefix facts can
#: otherwise grow terms without bound (e.g. ackermann's nested
#: successors).  Dropping candidates only loses loops, never soundness.
TERM_NODE_LIMIT = 200
#: Prefix solutions (unit-clause branches) kept per clause; dropping
#: the rest only loses loops.  Branches multiply per prefix literal
#: behind a fact table; no corpus clause has more than 3 and no
#: generated property-test clause more than 4.
PREFIX_BRANCH_LIMIT = 8

_LOOP_REASON = (
    "looping derivation: %s calls %s (instance of its own head); "
    "diverging witness query %s"
)
_REACH_REASON = (
    "looping derivation: %s calls %s and so reaches loop %s calls %s "
    "(instance of its own head); diverging witness query %s"
)
_SUBSUMED_REASON = (
    "looping derivation: %s calls %s (its own head is an instance of "
    "the call); diverging witness query %s"
)


def is_instance_of(specific, general):
    """True when ``specific = general . theta`` for some substitution
    (variants included)."""
    return match(general, specific) is not None


# -- static loop inference ----------------------------------------------------


class BinaryClause(NamedTuple):
    """A derived binary clause ``head <- body``: the program clause
    indices whose binary clauses compose to it, and per clause the unit
    clause indices that solved the literals before its call."""

    head: object
    body: object
    chain: tuple
    prefixes: tuple


class StaticLoops(NamedTuple):
    """What the composition closure found: the ``loops`` (body an
    instance of the head), the ``entries`` — ``(clause, loop)`` pairs
    where a derived clause of the root calls an instance of the head
    of a loop — and the ``subsumed`` root clauses whose head is a
    query in the root mode and an instance of their body.

    And what it did: the pairs ``explored``, the compositions whose
    unifier existed (``composed``), those ``dropped`` past
    :data:`TERM_NODE_LIMIT`, and whether :data:`COMPOSE_LIMIT`
    stopped it (``exhausted``) rather than saturation."""

    loops: list
    entries: list
    subsumed: list
    explored: int = 0
    composed: int = 0
    dropped: int = 0
    exhausted: bool = False


def _indicator(atom):
    if isinstance(atom, Struct):
        return (atom.functor, atom.arity)
    return (atom.name, 0)


def _canonical(term, names, parts, budget):
    """Append *term*'s text to *parts*, numbering its variables in
    first-occurrence order through *names* (variable name -> number,
    extended in place); return its size in term nodes, or None as soon
    as that exceeds *budget*."""
    nodes = 0
    stack = [term]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        nodes += 1
        if nodes > budget:
            return None
        if isinstance(item, Var):
            index = names.get(item.name)
            if index is None:
                index = names[item.name] = len(names)
            parts.append("_%d" % index)
        elif isinstance(item, Struct):
            parts.append(item.functor + "(")
            stack.append(")")
            args = item.args
            for position in range(len(args) - 1, 0, -1):
                stack.append(args[position])
                stack.append(",")
            stack.append(args[0])
        else:
            parts.append("a:%r" % (item.name,))
    return nodes


class _Head(NamedTuple):
    """A queued pair's head, canonicalized once: its text, its variable
    numbering (which doubles as its variable set) and its node count."""

    text: str
    names: dict
    nodes: int


def _head_of(head):
    """The :class:`_Head` of *head*, or None past the node limit."""
    names, parts = {}, []
    nodes = _canonical(head, names, parts, TERM_NODE_LIMIT)
    if nodes is None:
        return None
    return _Head("".join(parts), names, nodes)


def _variant_key(head_key, body):
    """The pair's text with its variables numbered in first-occurrence
    order -- equal exactly for variants -- continuing from *head_key*,
    the :class:`_Head` of its head; None when head and body together
    exceed :data:`TERM_NODE_LIMIT` nodes."""
    names = dict(head_key.names)
    parts = [head_key.text, "<-"]
    if _canonical(body, names, parts,
                  TERM_NODE_LIMIT - head_key.nodes) is None:
        return None
    return "".join(parts)


def _larger_than(terms, limit):
    """True when *terms* have more than *limit* nodes together; stops
    counting there, so terms that share subterms cost O(limit)."""
    nodes = 0
    stack = list(terms)
    while stack:
        item = stack.pop()
        nodes += 1
        if nodes > limit:
            return True
        if isinstance(item, Struct):
            stack.extend(item.args)
    return False


def _bounded(subst):
    """True when a prefix branch's substitution exists and binds no
    variable to a term of more than :data:`TERM_NODE_LIMIT` nodes."""
    return subst is not None and not any(
        _larger_than((value,), TERM_NODE_LIMIT) for value in subst.values()
    )


def binary_clauses(program, root, mode):
    """The base of the closure, over the clauses of the predicates
    *root* reaches: every leftmost binary clause ``H <- L1``, then
    every binary clause ``H·sigma <- Li·sigma`` whose prefix
    ``L1 ... L(i-1)`` is solved by ``=``, ``true`` and the program's
    unit clauses.

    A pair whose head *root* never reaches can feed no root loop, entry
    or subsumed clause, so leaving it out keeps the closure's order
    among the pairs that can while sparing the budget.  A pair of more
    than :data:`TERM_NODE_LIMIT` nodes is dropped, and so is a prefix
    branch that binds a variable to a larger term: a fact like
    ``p(X, f(X, X))`` doubles a term at every prefix literal.
    """
    clauses = program.clauses
    facts = {}
    for index, clause in enumerate(clauses):
        if not clause.body:
            facts.setdefault(clause.indicator, []).append(index)
    _, nodes = adorned_call_graph(program, root, mode)
    reached = {node.indicator for node in nodes}
    leftmost, prefixed = [], []
    for index, clause in enumerate(clauses):
        if clause.indicator not in reached:
            continue
        branches = [({}, ())]
        for position, literal in enumerate(clause.body):
            indicator = literal.indicator
            if not literal.positive:
                break
            if indicator == ("true", 0):
                continue
            if indicator == ("=", 2):
                left, right = literal.atom.args
                solved = [
                    (unify(left, right, subst), used)
                    for subst, used in branches
                ]
                branches = [
                    (subst, used) for subst, used in solved
                    if _bounded(subst)
                ]
            elif indicator in BUILTIN_PREDICATES:
                break
            else:
                found = prefixed if position else leftmost
                for subst, used in branches:
                    head = apply_subst(clause.head, subst)
                    body = apply_subst(literal.atom, subst)
                    if not _larger_than((head, body), TERM_NODE_LIMIT):
                        found.append(BinaryClause(
                            head, body, (index,), (used,),
                        ))
                solved = []
                for subst, used in branches:
                    for fact in facts.get(indicator, ()):
                        extended = unify(
                            literal.atom, rename_apart(clauses[fact]).head,
                            subst,
                        )
                        if _bounded(extended):
                            solved.append((extended, used + (fact,)))
                branches = solved[:PREFIX_BRANCH_LIMIT]
            if not branches:
                break
    return leftmost + prefixed


def _reached_loop(body, loops):
    """The first loop whose head *body* is an instance of, or None."""
    for loop in loops:
        if (_indicator(loop.head) == _indicator(body)
                and is_instance_of(body, loop.head)):
            return loop
    return None


def _clash(left, right):
    """True when some argument of *left* and of *right* differ in their
    principal functor: no renaming lets the two atoms unify."""
    if not isinstance(left, Struct):
        return False
    for a, b in zip(left.args, right.args):
        if isinstance(a, Var) or isinstance(b, Var):
            continue
        if isinstance(a, Struct):
            if not (isinstance(b, Struct) and a.functor == b.functor
                    and len(a.args) == len(b.args)):
                return True
        elif a != b:
            return True
    return False


def _renamed(pair):
    """*pair*'s head and body with globally fresh variables."""
    return rename_term_apart(Struct("<-", (pair.head, pair.body))).args


class _Renaming(NamedTuple):
    """A base pair with, per variable, the name pattern of its copies:
    ``<base>#c<n>`` (``.<k>`` after the first variable sharing a base),
    injective like :func:`~repro.lp.unify.rename_apart`.  No base pair
    has a ``#c`` name, so copies with distinct ``n`` share no variable
    with each other or with the base."""

    pair: BinaryClause
    patterns: tuple

    @classmethod
    def of(cls, pair):
        bases = {}
        patterns = []
        for var in terms_variables((pair.head, pair.body)):
            base = var.name.split("#")[0]
            taken = bases.get(base, 0)
            bases[base] = taken + 1
            patterns.append((var, base, ".%d" % taken if taken else ""))
        return cls(pair, tuple(patterns))

    def fresh(self, copy):
        """The pair's head and body, renamed to copy number *copy*."""
        renaming = {
            var: Var("%s#c%d%s" % (base, copy, tail))
            for var, base, tail in self.patterns
        }
        return (apply_subst(self.pair.head, renaming),
                apply_subst(self.pair.body, renaming))


def find_static_loops(program, root, mode):
    """Loops among the budgeted composition closure of the binary
    clauses, the derived clauses of *root* that reach one, and the
    derived clauses of *root* whose head is a query in *mode* and an
    instance of their body.

    Sound: every instance of a loop's head diverges, and so does every
    instance of an entry's head and a subsumed clause's head itself.

    A composition costs what it changes.  Each queued pair keeps its
    head's :class:`_Head`; the renamed base pair's head is unified with
    the pair's body so that its fresh variables bind to the pair's own,
    and when the unifier binds no head variable the derived head is the
    pair's head, object and key prefix alike, and only the new body is
    canonicalized.  Mgus are unique up to renaming, so the queue holds
    the same pairs up to variants whichever side binds.
    """
    base = binary_clauses(program, root, mode)
    by_indicator = {}
    for pair in base:
        by_indicator.setdefault(_indicator(pair.head), []).append(
            _Renaming.of(pair)
        )
    seen = set()
    queue = []
    heads = []
    for pair in base:
        head_key = _head_of(pair.head)
        key = _variant_key(head_key, pair.body)
        if key not in seen:
            seen.add(key)
            queue.append(pair)
            heads.append(head_key)
    loops = []
    copies = itertools.count(1)
    composed = dropped = 0
    exhausted = False
    index = 0
    while index < len(queue) and index < COMPOSE_LIMIT:
        pair = queue[index]
        head, body, chain, prefixes = pair
        head_key = heads[index]
        index += 1
        if _indicator(head) == _indicator(body) and is_instance_of(body, head):
            loops.append(pair)
            continue  # already a loop; composing further adds nothing
        if _reached_loop(body, loops) is not None:
            continue  # every call beyond this one diverges already
        for renaming in by_indicator.get(_indicator(body), ()):
            if len(queue) >= COMPOSE_LIMIT:
                exhausted = True
                break  # a pair queued past the budget is never explored
            pair2 = renaming.pair
            if _clash(body, pair2.head):
                continue
            head2, body2 = renaming.fresh(next(copies))
            theta = unify(head2, body)
            if theta is None:
                continue
            composed += 1
            names = head_key.names
            if any(var.name in names for var in theta):
                derived_head = apply_subst(head, theta)
                derived_key = _head_of(derived_head)
            else:
                derived_head, derived_key = head, head_key
            # theta is idempotent: one pass instantiates body2 fully.
            derived_body = substitute(body2, theta)
            key = None if derived_key is None else _variant_key(
                derived_key, derived_body
            )
            if key is None:
                dropped += 1
                continue
            if key not in seen:
                seen.add(key)
                queue.append(BinaryClause(
                    derived_head, derived_body,
                    chain + pair2.chain, prefixes + pair2.prefixes,
                ))
                heads.append(derived_key)
    entries = []
    subsumed = []
    for pair in queue[:index]:
        if _indicator(pair.head) != root or pair in loops:
            continue
        loop = _reached_loop(pair.body, loops)
        if loop is not None:
            entries.append((pair, loop))
        elif (_indicator(pair.body) == root
              and _is_mode_query(pair.head, mode)
              and is_instance_of(pair.head, pair.body)):
            subsumed.append(pair)
    return StaticLoops(
        loops, entries, subsumed, explored=index, composed=composed,
        dropped=dropped, exhausted=exhausted or index < len(queue),
    )


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


def _is_mode_query(head, mode):
    """True when *head* is itself a query in *mode*: ground at the
    bound positions, distinct variables at the free ones."""
    args = head.args if isinstance(head, Struct) else ()
    if len(args) != len(mode):
        return False
    free = [arg for arg, polarity in zip(args, mode) if polarity == "f"]
    return (
        all(arg.is_ground() for arg, polarity in zip(args, mode)
            if polarity == "b")
        and all(isinstance(arg, Var) for arg in free)
        and len(set(free)) == len(free)
    )


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


# -- the method ---------------------------------------------------------------


class NonTerminationMethod(TerminationMethod):
    """Find a static looping derivation; three-valued DISPROVED/UNKNOWN."""

    name = "nonterm"

    def analyze(self, program, root, mode, settings=None,
                certificate_cache=None, request_id=None):
        norm = resolve_settings(settings or AnalyzerSettings()).name
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
                    "pruning", None, members, nodes, norm, trace,
                )
            with trace.span("nonterm.static") as span:
                static = find_static_loops(program, root, mode)
                span.inc("pairs_explored", static.explored)
                span.inc("pairs_composed", static.composed)
                span.inc("pairs_dropped_for_size", static.dropped)
                span.set(compose_limit_hit=static.exhausted)
            verdict = self._decide(program, root, mode, static, trace)
            if verdict is not None:
                status, reason, witness = verdict
            else:
                status, witness = UNKNOWN, None
                reason = (
                    "no looping derivation found within budget "
                    "(%d derived binary clauses)" % COMPOSE_LIMIT
                )
            return self._result(
                program, root, mode, status, reason, witness, members,
                nodes, norm, trace,
            )

    def _result(self, program, root, mode, status, reason, witness,
                members, nodes, norm, trace):
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
            norm=norm,
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
                chain=loop.chain, prefixes=loop.prefixes, head=loop.head,
                body=loop.body, theta=match(loop.head, loop.body),
                query=query, mode=mode,
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
                chain=loop.chain, prefixes=loop.prefixes, head=loop.head,
                body=loop.body, theta=match(loop.head, loop.body),
                query=query, mode=mode,
                entry=LoopEntry(
                    chain=pair.chain, prefixes=pair.prefixes,
                    head=pair.head, body=pair.body,
                    sigma=match(loop.head, pair.body),
                ),
            )
            # The loop's variables are its own, even where the source
            # reuses a name: rename it apart before numbering.
            head, body = _renamed(loop)
            reason = _canonical_reason(
                _REACH_REASON, pair.head, pair.body, head, body, query,
            )
            return self._certified(program, witness, trace, reason)
        # 3. A root clause whose head is a query and an instance of its
        #    call disproves that query.
        for pair in static.subsumed:
            witness = LoopWitness(
                chain=pair.chain, prefixes=pair.prefixes, head=pair.head,
                body=pair.body, theta=match(pair.body, pair.head),
                query=pair.head, mode=mode, criterion=2,
            )
            reason = _canonical_reason(
                _SUBSUMED_REASON, pair.head, pair.body, pair.head
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
