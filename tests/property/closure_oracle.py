"""The composition closure as it ran before heads were reused, kept
as the oracle.

This is :func:`repro.methods.nonterm.find_static_loops` as it ran
when every composition rebuilt the whole pair: the call is unified
with the renamed pair, both halves of the derived pair are
instantiated, and the whole pair is canonicalized recursively.  It
starts from the library's :func:`~repro.methods.nonterm.binary_clauses`,
so only the closure is compared.  ``test_closure_agreement.py``
requires the library to find the same loops, entries and subsumed
pairs, up to variable renaming, in the same order, after exploring as
many pairs.  The only change to the old code is that count in the
result.
"""

from repro.lp.terms import Struct, Var
from repro.lp.unify import apply_subst, rename_term_apart, unify
from repro.methods.nonterm import (
    COMPOSE_LIMIT,
    TERM_NODE_LIMIT,
    BinaryClause,
    StaticLoops,
    _clash,
    _indicator,
    _is_mode_query,
    binary_clauses,
    is_instance_of,
)


def variant_key(head, body):
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


def _reached_loop(body, loops):
    """The first loop whose head *body* is an instance of, or None."""
    for loop in loops:
        if (_indicator(loop.head) == _indicator(body)
                and is_instance_of(body, loop.head)):
            return loop
    return None


def _renamed(pair):
    """*pair*'s head and body with globally fresh variables."""
    return rename_term_apart(Struct("<-", (pair.head, pair.body))).args


def oracle_static_loops(program, root, mode):
    """Loops among the budgeted composition closure of the binary
    clauses, the derived clauses of *root* that reach one, and the
    derived clauses of *root* whose head is a query in *mode* and an
    instance of their body."""
    base = binary_clauses(program, root, mode)
    by_indicator = {}
    for pair in base:
        by_indicator.setdefault(_indicator(pair.head), []).append(pair)
    seen = set()
    queue = []
    for pair in base:
        key, _ = variant_key(pair.head, pair.body)
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
            key, nodes = variant_key(derived.head, derived.body)
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
    return StaticLoops(loops, entries, subsumed, explored=index)
