"""The final λ feasibility step (Eqs. 5–9, §6.1).

- :mod:`repro.solve.simplex_backend` — :class:`SimplexBackend`, the
  exact two-phase simplex deciding the dualized λ system, and its
  :class:`SolveOutcome`/:class:`SolveStats` result types.
"""

from repro.solve.simplex_backend import (
    SimplexBackend,
    SolveOutcome,
    SolveStats,
)

__all__ = [
    "SimplexBackend",
    "SolveOutcome",
    "SolveStats",
]
