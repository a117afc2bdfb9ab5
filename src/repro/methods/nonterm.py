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
#: Derived binary clauses whose head+body exceed this many term nodes
#: are dropped — composition can otherwise grow terms without bound
#: (e.g. ackermann's nested successors).  Dropping candidates only
#: loses loops, never soundness.
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
    query in the root mode and an instance of their body."""

    loops: list
    entries: list
    subsumed: list


def _indicator(atom):
    if isinstance(atom, Struct):
        return (atom.functor, atom.arity)
    return (atom.name, 0)


def _variant_key(head, body):
    """The pair's text with its variables numbered in first-occurrence
    order — equal exactly for variants — and its size in term nodes."""
    names = {}
    nodes = 0

    def canonical(term):
        nonlocal nodes
        nodes += 1
        if isinstance(term, Var):
            index = names.setdefault(term.name, len(names))
            return "_%d" % index
        if isinstance(term, Struct):
            return "%s(%s)" % (
                term.functor, ",".join(canonical(a) for a in term.args)
            )
        return "a:%r" % (term.name,)

    return canonical(head) + "<-" + canonical(body), nodes


def binary_clauses(program, root, mode):
    """The base of the closure, over the clauses of the predicates
    *root* reaches: every leftmost binary clause ``H <- L1``, then
    every binary clause ``H·sigma <- Li·sigma`` whose prefix
    ``L1 ... L(i-1)`` is solved by ``=``, ``true`` and the program's
    unit clauses.

    A pair whose head *root* never reaches can feed no root loop, entry
    or subsumed clause, so leaving it out keeps the closure's order
    among the pairs that can while sparing the budget.
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
                    if subst is not None
                ]
            elif indicator in BUILTIN_PREDICATES:
                break
            else:
                found = prefixed if position else leftmost
                for subst, used in branches:
                    found.append(BinaryClause(
                        apply_subst(clause.head, subst),
                        apply_subst(literal.atom, subst),
                        (index,), (used,),
                    ))
                solved = []
                for subst, used in branches:
                    for fact in facts.get(indicator, ()):
                        extended = unify(
                            literal.atom, rename_apart(clauses[fact]).head,
                            subst,
                        )
                        if extended is not None:
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


def find_static_loops(program, root, mode):
    """Loops among the budgeted composition closure of the binary
    clauses, the derived clauses of *root* that reach one, and the
    derived clauses of *root* whose head is a query in *mode* and an
    instance of their body.

    Sound: every instance of a loop's head diverges, and so does every
    instance of an entry's head and a subsumed clause's head itself.
    """
    base = binary_clauses(program, root, mode)
    by_indicator = {}
    for pair in base:
        by_indicator.setdefault(_indicator(pair.head), []).append(pair)
    seen = set()
    queue = []
    for pair in base:
        key, _ = _variant_key(pair.head, pair.body)
        if key not in seen:
            seen.add(key)
            queue.append(pair)
    loops = []
    index = 0
    while index < len(queue) and index < COMPOSE_LIMIT:
        pair = queue[index]
        head, body, chain, prefixes = pair
        index += 1
        if _indicator(head) == _indicator(body) and is_instance_of(body, head):
            loops.append(pair)
            continue  # already a loop; composing further adds nothing
        if _reached_loop(body, loops) is not None:
            continue  # every call beyond this one diverges already
        for pair2 in by_indicator.get(_indicator(body), ()):
            if len(queue) >= COMPOSE_LIMIT:
                break  # a pair queued past the budget is never explored
            if _clash(body, pair2.head):
                continue
            head2, body2 = _renamed(pair2)
            theta = unify(body, head2)
            if theta is None:
                continue
            derived = BinaryClause(
                apply_subst(head, theta),
                apply_subst(body2, theta),
                chain + pair2.chain,
                prefixes + pair2.prefixes,
            )
            key, nodes = _variant_key(derived.head, derived.body)
            if nodes > TERM_NODE_LIMIT:
                continue
            if key not in seen:
                seen.add(key)
                queue.append(derived)
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
    return StaticLoops(loops, entries, subsumed)


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
            with trace.span("nonterm.static"):
                static = find_static_loops(program, root, mode)
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
