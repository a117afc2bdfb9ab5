"""Exact linear algebra: expressions, constraints, FM, simplex.

Nothing here touches floating point, so results are exact — a
termination *proof* must not depend on rounding.  A constraint stores
its canonical integer row, the one row format the Fourier–Motzkin
engine, the simplex tableau and polyhedra all compute on; linear
expressions hold :class:`fractions.Fraction` coefficients and serve to
build rows and to view them.  The subpackage provides:

- :mod:`repro.linalg.linexpr` — immutable linear expressions.
- :mod:`repro.linalg.constraints` — constraints (canonical integer
  rows) and constraint systems.
- :mod:`repro.linalg.rows` — the integer row engine every
  Fourier–Motzkin elimination runs on: substitution, pairwise
  combination, dominance pruning, and the greedy variable choice.
- :mod:`repro.linalg.fourier_motzkin` — exact projection by
  Fourier–Motzkin elimination (the paper's workhorse, Section 4):
  ``eliminate_all``, and ``eliminate_all_tracked``, the same
  elimination tidied by an LP redundancy prune.
- :mod:`repro.linalg.dd` — double description: the lines and extreme
  rays of a polyhedral cone, on ints, with no LP (the convex hull runs
  on it).
- :mod:`repro.linalg.simplex` — a two-phase exact simplex LP solver with
  dual values (used for the duality cross-checks and ablations).
- :mod:`repro.linalg.polyhedron` — convex polyhedra in constraint form
  with emptiness, entailment, projection, and convex hull (the abstract
  domain behind inter-argument inference).
"""

from repro.linalg.linexpr import LinearExpr, variable
from repro.linalg.constraints import (
    Constraint,
    ConstraintSystem,
    EQ,
    GE,
    LE,
)
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.simplex import LPResult, solve_lp, is_feasible
from repro.linalg.polyhedron import Polyhedron

__all__ = [
    "LinearExpr",
    "variable",
    "Constraint",
    "ConstraintSystem",
    "EQ",
    "GE",
    "LE",
    "eliminate_all",
    "LPResult",
    "solve_lp",
    "is_feasible",
    "Polyhedron",
]
