"""The object-pipeline Fourier–Motzkin elimination, kept as the oracle.

This is the elimination :mod:`repro.linalg.fourier_motzkin` ran before
every step moved onto the integer row engine of
:mod:`repro.linalg.rows`: Gaussian substitution over ``Fraction``
expressions, pairwise combination on
:class:`~repro.linalg.constraints.Constraint` objects, the greedy
elimination cost, and dominance pruning keyed on
:class:`~repro.linalg.linexpr.LinearExpr` linear parts.  The property tests in
``test_kernel_props.py`` require the engine to agree with it byte for
byte — the same rows, in the same canonical form, in the same
insertion order.  The tidy projection of ``eliminate_all_tracked``
must also be the oracle elimination's point set, irredundant
(:func:`check_projection`).

The oracle shares no code with the engine it checks: it imports
nothing from :mod:`repro.linalg.fourier_motzkin` or
:mod:`repro.linalg.rows`, and its LP redundancy prune is the simplex
oracle's :func:`~tests.property.simplex_oracle.oracle_prune` (same kept
rows as the library's on nonempty systems, by
``test_simplex_props.py``).
"""

from fractions import Fraction

from repro.linalg.constraints import Constraint, ConstraintSystem, GE
from repro.linalg.linexpr import LinearExpr
from repro.linalg.simplex import entails, is_feasible

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


def oracle_project(system, variables):
    """:func:`repro.linalg.fourier_motzkin.eliminate_all_tracked` on
    objects: :func:`oracle_eliminate_all`, its equalities split in
    place, the dominance pass, and — on 2 rows or more — ``-1 >= 0``
    for an empty result (decided on the input past 60 rows), else the
    LP prune up to 60 rows."""
    projected = oracle_eliminate_all(system, variables)
    split = prune_redundant(ConstraintSystem(projected.inequalities()))
    if len(split) <= 1:
        return split
    if not is_feasible(split if len(split) <= 60 else system):
        return ConstraintSystem([Constraint(LinearExpr.constant(-1), GE)])
    return split if len(split) > 60 else oracle_prune(split)


def check_projection(system, variables, result):
    """Assert that *result* is the projection of *system* with
    *variables* eliminated, as
    :func:`repro.linalg.fourier_motzkin.eliminate_all_tracked` returns
    it: pure ``>=`` rows over the kept variables; an empty projection
    is the single row ``-1 >= 0``; up to 60 rows (the range of the
    library's LP prune), the point set of :func:`oracle_eliminate_all`
    plus :func:`prune_redundant` with the LP, with no row entailed by
    the others; past 60, the oracle's own rows."""
    projected = oracle_eliminate_all(system, variables)
    rows = list(result)
    assert not any(row.is_equality() for row in rows)
    assert not result.variables() & set(variables)
    if not is_feasible(projected):
        assert rows == [Constraint(LinearExpr.constant(-1), GE)]
        return
    if len(rows) > 60:
        split = ConstraintSystem(projected.inequalities())
        assert set(rows) == set(prune_redundant(split))
        return
    want = list(prune_redundant(projected, use_lp=True))
    assert all(entails(rows, row) for row in want)
    assert all(entails(want, row) for row in rows)
    assert len(oracle_prune(result)) == len(rows)

