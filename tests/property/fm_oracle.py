"""The object-pipeline Fourier–Motzkin elimination, kept as the oracle.

This is the elimination :mod:`repro.linalg.fourier_motzkin` and the
``fm`` backend ran before every step moved onto the integer row engine
of :mod:`repro.linalg.rows`: Gaussian substitution over ``Fraction``
expressions, pairwise combination on
:class:`~repro.linalg.constraints.Constraint` objects, the greedy
elimination cost, dominance pruning keyed on
:class:`~repro.linalg.linexpr.LinearExpr` linear parts, tracked
elimination with frozenset Chernikov ancestors, and the Fraction
interval witness.  The property tests in ``test_kernel_props.py``
require the engine to agree with it byte for byte — the same rows, in
the same canonical form, in the same insertion order.

The oracle shares no code with the engine it checks: it imports
nothing from :mod:`repro.linalg.fourier_motzkin` or
:mod:`repro.linalg.rows`, and its LP redundancy prune is the simplex
oracle's :func:`~tests.property.simplex_oracle.oracle_prune` (same kept
rows as the library's, by ``test_simplex_props.py``).
"""

from fractions import Fraction

from repro.errors import FMBlowupError
from repro.linalg.constraints import Constraint, ConstraintSystem, GE
from repro.linalg.linexpr import LinearExpr

from tests.property.simplex_oracle import oracle_prune


def oracle_eliminate(system, var, prune=True):
    """Eliminate *var*: substitute with the first equality that
    mentions it, else combine pairwise."""
    relevant_eq = None
    for constraint in system:
        if constraint.is_equality() and var in constraint.variables():
            relevant_eq = constraint
            break

    if relevant_eq is not None:
        return _eliminate_by_substitution(system, var, relevant_eq)
    return _eliminate_by_combination(system, var, prune=prune)


def _eliminate_by_combination(system, var, prune=True):
    """Classic FM: pair each positive occurrence with each negative."""
    positives = []
    negatives = []
    result = ConstraintSystem()
    for constraint in system.inequalities():
        coeff = constraint.expr.coefficient(var)
        if coeff > 0:
            positives.append(constraint)
        elif coeff < 0:
            negatives.append(constraint)
        else:
            result.add(constraint)
    for pos in positives:
        pos_coeff = pos.expr.coefficient(var)
        for neg in negatives:
            neg_coeff = neg.expr.coefficient(var)
            # pos.expr >= 0 has +a*var, neg.expr >= 0 has -b*var (a,b>0):
            # b*pos.expr + a*neg.expr >= 0 cancels var.
            combined = pos.expr * (-neg_coeff) + neg.expr * pos_coeff
            result.add(Constraint(combined, GE))
    if prune:
        result = prune_redundant(result)
    return result


def _eliminate_by_substitution(system, var, equality):
    """Solve *equality* for *var* and substitute everywhere else."""
    coeff = equality.expr.coefficient(var)
    # var = -(rest)/coeff  where  expr = coeff*var + rest = 0
    rest = equality.expr - LinearExpr.of(var, coeff)
    replacement = rest * (Fraction(-1) / coeff)
    result = ConstraintSystem()
    for constraint in system:
        if constraint is equality:
            continue
        if var in constraint.variables():
            result.add(constraint.substitute({var: replacement}))
        else:
            result.add(constraint)
    return result


def oracle_eliminate_all(system, variables, prune=True):
    """:func:`repro.linalg.fourier_motzkin.eliminate_all` on objects:
    one greedy elimination at a time, materialized after each step."""
    remaining = set(variables)
    current = system
    while remaining:
        costs = _elimination_costs(current, remaining)
        if not costs:
            break
        var = min(costs, key=lambda v: costs[v])
        current = oracle_eliminate(current, var, prune=prune)
        remaining.discard(var)
    return current


def _elimination_costs(system, remaining):
    """Greedy cost of every *remaining* variable present in *system*.

    Returns ``{var: (cost, repr(var))}`` — ``cost`` is -1 when an
    equality mentions the variable (substitution is always cheapest),
    else |positives| × |negatives|.
    """
    counts = {}
    for constraint in system:
        is_equality = constraint.is_equality()
        expr = constraint.expr
        for var in constraint.variables():
            if var not in remaining:
                continue
            entry = counts.get(var)
            if entry is None:
                entry = counts[var] = [0, 0, False]
            if is_equality:
                entry[2] = True
            elif expr.coefficient(var) > 0:
                entry[0] += 1
            else:
                entry[1] += 1
    return {
        var: ((-1, repr(var)) if has_eq
              else (positives * negatives, repr(var)))
        for var, (positives, negatives, has_eq) in counts.items()
    }


def prune_redundant(system, use_lp=False):
    """Remove redundant inequality rows.

    Always applies the cheap pairwise-dominance test: a row
    ``e + c1 >= 0`` is dropped when another row ``e + c0 >= 0`` with
    ``c0 <= c1`` exists (same linear part, weaker constant).  With
    ``use_lp=True``, additionally removes every inequality implied by
    the others (exact, via simplex).
    """
    by_linear_part = {}
    equalities = []
    for constraint in system:
        if constraint.is_equality():
            equalities.append(constraint)
            continue
        linear_part = constraint.expr - LinearExpr.constant(
            constraint.expr.const
        )
        key = linear_part
        best = by_linear_part.get(key)
        if best is None or constraint.expr.const < best.expr.const:
            by_linear_part[key] = constraint
    pruned = ConstraintSystem(equalities)
    pruned.extend(by_linear_part.values())

    if not use_lp:
        return pruned
    return oracle_prune(pruned)


def oracle_eliminate_all_tracked(system, variables, max_rows=600):
    """:func:`repro.linalg.fourier_motzkin.eliminate_all_tracked` on
    objects."""
    result = _reference_tracked(system, variables, max_rows)
    if 1 < len(result) <= 60:
        return prune_redundant(result, use_lp=True)
    return prune_redundant(result)


def _reference_tracked(system, variables, max_rows):
    """The object-pipeline tracked elimination (differential baseline)."""
    rows = []
    for index, constraint in enumerate(system.inequalities()):
        rows.append((constraint, frozenset((index,))))

    remaining = set(variables)
    eliminated = 0
    while remaining:
        present = set()
        for constraint, _ in rows:
            present |= constraint.variables() & remaining
        if not present:
            break
        var = min(
            present, key=lambda v: _tracked_cost(rows, v)
        )
        remaining.discard(var)
        eliminated += 1
        rows = _tracked_step(rows, var, eliminated)
        if max_rows is not None and len(rows) > max_rows:
            raise FMBlowupError(
                "tracked elimination exceeded %d rows" % max_rows
            )

    return ConstraintSystem(constraint for constraint, _ in rows)


def _tracked_cost(rows, var):
    positives = negatives = 0
    for constraint, _ in rows:
        coeff = constraint.expr.coefficient(var)
        if coeff > 0:
            positives += 1
        elif coeff < 0:
            negatives += 1
    return (positives * negatives, repr(var))


def _tracked_step(rows, var, eliminated):
    positives = []
    negatives = []
    kept = []
    for row in rows:
        coeff = row[0].expr.coefficient(var)
        if coeff > 0:
            positives.append(row)
        elif coeff < 0:
            negatives.append(row)
        else:
            kept.append(row)
    limit = eliminated + 1
    seen = {constraint for constraint, _ in kept}
    for pos, pos_history in positives:
        pos_coeff = pos.expr.coefficient(var)
        for neg, neg_history in negatives:
            history = pos_history | neg_history
            if len(history) > limit:
                continue  # Chernikov: provably redundant
            neg_coeff = neg.expr.coefficient(var)
            combined = Constraint(
                pos.expr * (-neg_coeff) + neg.expr * pos_coeff, GE
            )
            if combined.is_trivial() or combined in seen:
                continue
            seen.add(combined)
            kept.append((combined, history))
    return _dominance_filter(kept)


def _dominance_filter(rows):
    """Keep only the tightest row per linear part (cheap pruning)."""
    best = {}
    for constraint, history in rows:
        linear = constraint.expr - LinearExpr.constant(constraint.expr.const)
        current = best.get(linear)
        if current is None or constraint.expr.const < current[0].expr.const:
            best[linear] = (constraint, history)
    return list(best.values())


def oracle_feasible_point(system, prune=True):
    """The ``fm`` backend's solve on objects.

    Returns ``(feasible, rows_out, witness)`` — the verdict, the row
    count surviving full elimination, and (when feasible) the witness
    recovered in reverse elimination order.
    """
    order = sorted(system.variables(), key=repr)
    stages = [system]
    for var in order:
        stages.append(oracle_eliminate(stages[-1], var, prune=prune))
    rows_out = len(stages[-1])
    if stages[-1].has_contradiction_row():
        return False, rows_out, None
    point = {}
    for var, stage in zip(reversed(order), reversed(stages[:-1])):
        point[var] = _pick_value(stage, var, point)
    return True, rows_out, point


def _pick_value(system, var, partial):
    """Choose a value for *var* consistent with *system*, where
    *partial* already fixes every other variable of *system*."""
    lower = None
    upper = None
    for constraint in system:
        coeff = constraint.expr.coefficient(var)
        if coeff == 0:
            continue
        rest = constraint.expr - LinearExpr.of(var, coeff)
        rest_value = rest.evaluate(partial)
        bound = -rest_value / coeff
        if constraint.is_equality():
            return bound
        if coeff > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    if lower is not None and upper is not None:
        return (lower + upper) / 2
    if lower is not None:
        return lower
    if upper is not None:
        return upper
    return Fraction(0)
