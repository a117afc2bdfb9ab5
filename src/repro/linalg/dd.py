"""Double description: the generators of a polyhedral cone, on ints.

A polyhedral cone ``{z : E.z = 0, A.z >= 0}`` is also
``span(lines) + cone(rays)``: its lineality space plus its extreme
rays (Motzkin et al. 1953).  :func:`cone_generators` converts the
constraints into that minimal generator set incrementally, one
constraint at a time (Fukuda & Prodon 1996, "Double description method
revisited"), starting from the whole space (every unit vector a line):

- a constraint ``a`` that some line ``l`` does not satisfy with
  equality pivots on that line: the other lines and every ray are
  moved along ``l`` until ``a`` holds with equality on them (a ray
  moved along a line is the same ray modulo the lineality space), and
  for an inequality ``l``, oriented so that ``a.l > 0``, becomes a ray;
- otherwise the rays split by the sign of ``a.r``: the negative ones
  leave (for an equality the positive ones too), and each *adjacent*
  (positive, negative) pair adds the ray where the 2-face between them
  crosses ``a.z = 0``.

Adjacency is decided combinatorially on zero sets — the constraints a
ray satisfies with equality, held as int bitmasks: two rays are
adjacent iff no third ray's zero set contains the intersection of
theirs.  The rank pre-filter comes first: a 2-face of an ``n``-space
cone with ``k`` lines is cut out by constraints of rank ``n - k - 2``,
so the intersection needs at least that many members.  Every vector is
a tuple of Python ints divided by the gcd of its entries, so there is
no rational arithmetic and no LP.

The conversion is its own inverse up to polarity: the constraints of
``span(L) + cone(R)`` are the generators of the polar cone
``{h : h.l = 0 for l in L, h.r >= 0 for r in R}``, whose lines are the
implicit equalities and whose extreme rays are the facets, each once.

A conversion whose ray count passes :data:`RAY_BUDGET` stops: the
number of extreme rays can grow exponentially in the number of
constraints (a box ``[0,1]^8`` has 256 vertices), and the caller then
takes a path that does not enumerate them: the hull's is the weak join,
a sound upper bound found by LP.
"""

from __future__ import annotations

from math import gcd

__all__ = ["RAY_BUDGET", "cancel", "cone_generators"]

#: The most rays a conversion may hold before it stops and
#: :func:`cone_generators` returns None.
RAY_BUDGET = 64


def cone_generators(equalities, inequalities, width):
    """The lines and extreme rays of ``{z in Q^width : e.z = 0 for e in
    equalities, a.z >= 0 for a in inequalities}``.

    Constraints are int tuples of length *width*; they are processed
    equalities first, each in the given order.  Returns ``(lines,
    rays)`` as lists of gcd-normalized int tuples, or None once more
    than :data:`RAY_BUDGET` rays are held.
    """
    lines = [
        tuple(int(i == j) for i in range(width)) for j in range(width)
    ]
    rays = []  # (ray, zero set) pairs
    constraints = [(a, True) for a in equalities]
    constraints += [(a, False) for a in inequalities]
    for k, (a, is_equality) in enumerate(constraints):
        bit = 1 << k
        values = [_dot(a, line) for line in lines]
        pivot = next((i for i, value in enumerate(values) if value), None)
        if pivot is not None:
            line = lines[pivot]
            value = values[pivot]
            lines = [
                cancel(other, other_value, line, value)
                for i, (other, other_value) in enumerate(zip(lines, values))
                if i != pivot
            ]
            rays = [(cancel(ray, _dot(a, ray), line, value), zeros | bit)
                    for ray, zeros in rays]
            if not is_equality:
                ray = line if value > 0 else tuple(-c for c in line)
                rays.append((ray, bit - 1))
            continue

        positive = []
        negative = []
        kept = []
        for ray, zeros in rays:
            value = _dot(a, ray)
            if value > 0:
                positive.append((ray, zeros, value))
                if not is_equality:
                    kept.append((ray, zeros))
            elif value < 0:
                negative.append((ray, zeros, value))
            else:
                kept.append((ray, zeros | bit))
        rank = width - len(lines) - 2
        for p, p_zeros, p_value in positive:
            for q, q_zeros, q_value in negative:
                common = p_zeros & q_zeros
                if common.bit_count() < rank or _covered(
                    common, rays, p_zeros, q_zeros
                ):
                    continue
                ray = _normalize(tuple(
                    p_value * y - q_value * x for x, y in zip(p, q)
                ))
                kept.append((ray, common | bit))
                if len(kept) > RAY_BUDGET:
                    return None
        rays = kept
    return lines, [ray for ray, _ in rays]


def cancel(vector, vector_value, line, line_value):
    """*vector* plus a multiple of *line* that zeroes a linear form
    worth *vector_value* on *vector* and *line_value* (nonzero) on
    *line*, scaled by ``|line_value|`` so that a ray keeps its
    direction, gcd-normalized."""
    if not vector_value:
        return vector
    scale = abs(line_value)
    shift = vector_value if line_value > 0 else -vector_value
    return _normalize(tuple(
        scale * x - shift * y for x, y in zip(vector, line)
    ))


def _covered(common, rays, p_zeros, q_zeros):
    """Does a ray other than the pair (zero sets *p_zeros*, *q_zeros*)
    satisfy every constraint in *common* with equality?  Then the pair
    spans no 2-face: it is not adjacent.

    Zero sets are distinct (two extreme rays never share one), so the
    pair is recognized by its masks."""
    for _, zeros in rays:
        if zeros & common == common and zeros != p_zeros and zeros != q_zeros:
            return True
    return False


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b) if x)


def _normalize(vector):
    """*vector* divided by the gcd of its entries (the sign stays)."""
    divisor = gcd(*vector)
    if divisor > 1:
        return tuple(c // divisor for c in vector)
    return vector
