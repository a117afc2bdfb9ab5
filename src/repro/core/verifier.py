"""Independent certificate verification via the primal LP (Eq. 4).

The analyzer finds lambda by Fourier–Motzkin reduction of the *dual*.
This module re-checks a finished certificate through the opposite
route, exactly as Section 4 sets the problem up: for every rule ×
recursive-subgoal combination, solve the primal

    minimize  lambda_i . x - lambda_j . y
    subject to  Eq. 1  (sizes nonnegative, imported constraints)

with the exact simplex and confirm the minimum is >= theta_ij (or that
the body constraints are infeasible, in which case the recursive call
is unreachable and the claim is vacuous).  It also re-checks the
positive-cycle condition on the chosen thetas with the min-plus
closure.

A certificate that passes both checks is correct by the paper's
argument regardless of any bug in the FM/dual path — the two pipelines
share only the Eq. 1 construction.

:func:`verify_loop` does the same for a DISPROVED verdict: it replays
the loop witness against the program text alone — purity, the body
prefixes solved by the named unit clauses, the resolution steps
through the named clauses, the instance relations and the shape of
the diverging query — sharing nothing with the search that found the
loop.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ReproError
from repro.linalg.constraints import Constraint, ConstraintSystem
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import INFEASIBLE, UNBOUNDED, solve_lp
from repro.graph.minplus import find_nonpositive_cycle
from repro.lp.program import BUILTIN_PREDICATES
from repro.lp.terms import Struct, Var
from repro.lp.unify import apply_subst, match, rename_apart, substitute, unify


class VerificationError(ReproError):
    """Raised when a certificate fails independent verification."""


def verify_proof(proof):
    """Verify a :class:`~repro.core.certificate.TerminationProof` or a
    single :class:`~repro.core.certificate.SCCProof`.

    Returns True on success; raises :class:`VerificationError` with a
    precise reason otherwise.
    """
    scc_proofs = getattr(proof, "scc_proofs", None)
    if scc_proofs is None:
        scc_proofs = [proof]
    for scc_proof in scc_proofs:
        _verify_scc(scc_proof)
    return True


def _verify_scc(proof):
    if proof.trivially_nonrecursive:
        return

    _check_lambda_nonnegative(proof)
    _check_positive_cycles(proof)
    for system in proof.rule_systems:
        _check_decrease(proof, system)


def _check_lambda_nonnegative(proof):
    for node, weights in proof.lambdas.items():
        for position, value in weights.items():
            if value < 0:
                raise VerificationError(
                    "lambda[%s][%d] = %s is negative" % (node, position, value)
                )


def _check_positive_cycles(proof):
    weights = dict(proof.thetas)
    cycle = find_nonpositive_cycle(list(proof.members), weights)
    if cycle is not None:
        raise VerificationError(
            "theta weights admit a non-positive cycle: %s"
            % " -> ".join(str(node) for node in cycle)
        )


def _check_decrease(proof, system):
    """Primal check of Eq. 2 for one rule/recursive-subgoal pair."""
    theta = proof.thetas.get(system.edge)
    if theta is None:
        raise VerificationError(
            "certificate has no theta for edge %s" % (system.edge,)
        )

    head_weights = proof.lambdas.get(system.head_node, {})
    subgoal_weights = proof.lambdas.get(system.subgoal_node, {})

    objective = LinearExpr()
    for position, expr in zip(system.x_positions, system.x_exprs):
        weight = head_weights.get(position, Fraction(0))
        if weight:
            objective = objective + expr * weight
    for position, expr in zip(system.y_positions, system.y_exprs):
        weight = subgoal_weights.get(position, Fraction(0))
        if weight:
            objective = objective - expr * weight

    constraints = ConstraintSystem()
    constraints.extend(system.imported)
    phi = set()
    for expr in system.x_exprs:
        phi |= expr.variables()
    for expr in system.y_exprs:
        phi |= expr.variables()
    for constraint in system.imported:
        phi |= constraint.variables()
    for var in sorted(phi, key=repr):
        constraints.add(Constraint.ge(LinearExpr.of(var)))

    result = solve_lp(objective, constraints)
    if result.status == INFEASIBLE:
        return  # recursive call unreachable under the size constraints
    if result.status == UNBOUNDED:
        raise VerificationError(
            "decrease objective unbounded below for rule %s" % system.clause
        )
    if result.value < theta:
        raise VerificationError(
            "decrease fails for rule %s: min(lambda.x - lambda.y) = %s "
            "< theta = %s" % (system.clause, result.value, theta)
        )


# -- non-termination witnesses -------------------------------------------------

#: Builtins the loop criteria stay sound across: pure unification and
#: the constant outcomes.  Everything else (cut, negation, arithmetic,
#: term comparisons) can prune or reorder the looping branch.
_PURE_BUILTINS = frozenset({("=", 2), ("true", 0), ("fail", 0)})


def is_pure_program(program):
    """True when every body literal is positive and every builtin used
    is loop-criterion-safe: the programs a loop can disprove."""
    for clause in program.clauses:
        for literal in clause.body:
            if not literal.positive:
                return False
            indicator = literal.indicator
            if indicator in BUILTIN_PREDICATES:
                if indicator not in _PURE_BUILTINS:
                    return False
    return True


def verify_loop(program, witness):
    """Replay a :class:`~repro.core.certificate.LoopWitness`.

    Returns True when the witness proves that its query diverges under
    the leftmost selection rule; raises :class:`VerificationError`
    naming the first check that fails otherwise.
    """
    if not is_pure_program(program):
        raise VerificationError(
            "program uses cut, negation, or a non-monotone builtin"
        )
    _check_chain(
        program, witness.chain, witness.prefixes, witness.head, witness.body
    )
    start = witness.head
    entry = witness.entry
    if witness.criterion == 1:
        if substitute(witness.head, witness.theta) != witness.body:
            raise VerificationError(
                "loop body %s is not head %s under theta"
                % (witness.body, witness.head)
            )
        if entry is not None:
            _check_chain(
                program, entry.chain, entry.prefixes, entry.head, entry.body
            )
            if substitute(witness.head, entry.sigma) != entry.body:
                raise VerificationError(
                    "entry body %s is not loop head %s under sigma"
                    % (entry.body, witness.head)
                )
            start = entry.head
    elif witness.criterion == 2:
        if entry is not None:
            raise VerificationError(
                "only the head of a subsumption loop diverges; it has no "
                "entry"
            )
        if substitute(witness.body, witness.theta) != witness.head:
            raise VerificationError(
                "loop head %s is not body %s under theta"
                % (witness.head, witness.body)
            )
        if match(witness.query, witness.head) is None:
            raise VerificationError(
                "query %s is not the loop head %s itself"
                % (witness.query, witness.head)
            )
    else:
        raise VerificationError(
            "no loop criterion %r" % (witness.criterion,)
        )
    _check_query(witness.query, start, witness.mode)
    return True


def _check_chain(program, chain, prefixes, head, body):
    """The binary clauses of ``program.clauses[i]`` for ``i`` in
    *chain*, their prefixes solved by the unit clauses in *prefixes*,
    compose (mgu with occurs check) to a variant of ``head <- body``."""
    if not chain:
        raise VerificationError("empty clause chain")
    if len(prefixes) != len(chain):
        raise VerificationError(
            "%d prefixes for the %d clauses of chain %s"
            % (len(prefixes), len(chain), list(chain))
        )
    clauses = program.clauses
    derived = None
    for index, facts in zip(chain, prefixes):
        if index not in range(len(clauses)):
            raise VerificationError("no clause %r" % (index,))
        step = _binary_clause(clauses, index, facts)
        if derived is None:
            derived = step
            continue
        mgu = unify(derived[1], step[0], occurs_check=True)
        if mgu is None:
            raise VerificationError(
                "call %s does not unify with the head of clause %d"
                % (derived[1], index)
            )
        derived = (apply_subst(derived[0], mgu), apply_subst(step[1], mgu))
    replayed, claimed = Struct("<-", derived), Struct("<-", (head, body))
    if match(replayed, claimed) is None or match(claimed, replayed) is None:
        raise VerificationError(
            "clauses %s compose to %s <- %s, not a variant of %s <- %s"
            % (list(chain), derived[0], derived[1], head, body)
        )


def _binary_clause(clauses, index, facts):
    """``H.sigma <- L.sigma`` for a renamed copy of clause *index*:
    ``sigma`` solves the literals before the user literal ``L`` with
    ``=``, ``true`` and the unit clauses at indices *facts*, one per
    user literal, in order."""
    clause = rename_apart(clauses[index])
    facts = list(facts)
    subst = {}
    for literal in clause.body:
        indicator = literal.indicator
        if indicator == ("true", 0):
            continue
        if indicator == ("=", 2):
            subst = unify(*literal.atom.args, subst, occurs_check=True)
            if subst is None:
                raise VerificationError(
                    "%s fails in clause %d" % (literal.atom, index)
                )
            continue
        if indicator in BUILTIN_PREDICATES:
            break
        if not facts:
            return (
                apply_subst(clause.head, subst),
                apply_subst(literal.atom, subst),
            )
        fact = facts.pop(0)
        if (fact not in range(len(clauses)) or clauses[fact].body
                or clauses[fact].indicator != indicator):
            raise VerificationError(
                "%r is not a unit clause of %s/%d" % ((fact,) + indicator)
            )
        subst = unify(
            literal.atom, rename_apart(clauses[fact]).head, subst,
            occurs_check=True,
        )
        if subst is None:
            raise VerificationError(
                "%s in clause %d does not unify with unit clause %d"
                % (literal.atom, index, fact)
            )
    raise VerificationError(
        "clause %d has no user call after its prefix" % index
    )


def _check_query(query, head, mode):
    """*query* is an instance of *head*, ground at the bound positions
    of *mode* and distinct variables at the free ones."""
    args = query.args if isinstance(query, Struct) else ()
    if len(args) != len(mode):
        raise VerificationError(
            "query %s does not have mode %s" % (query, mode)
        )
    if match(head, query) is None:
        raise VerificationError(
            "query %s is not an instance of %s" % (query, head)
        )
    free = set()
    for arg, polarity in zip(args, mode):
        if polarity == "b":
            if not arg.is_ground():
                raise VerificationError(
                    "bound argument %s of query %s is not ground"
                    % (arg, query)
                )
        elif not isinstance(arg, Var) or arg in free:
            raise VerificationError(
                "free argument %s of query %s is not a distinct variable"
                % (arg, query)
            )
        else:
            free.add(arg)
