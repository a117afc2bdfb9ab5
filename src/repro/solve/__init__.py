"""Pluggable LP solver backends for the termination pipeline.

- :mod:`repro.solve.backend` — the :class:`LPBackend` interface, the
  :class:`SolveOutcome`/:class:`SolveStats` result types, and the
  name registry (:func:`register_backend` / :func:`get_backend`).
- :mod:`repro.solve.simplex_backend` — exact two-phase simplex
  (default; counts pivots).
- :mod:`repro.solve.fm_backend` — pure Fourier–Motzkin elimination
  with witness recovery by back-substitution (counts eliminations).

Importing this package registers both built-in backends.
"""

from repro.solve.backend import (
    LPBackend,
    SolveOutcome,
    SolveStats,
    available_backends,
    get_backend,
    register_backend,
)
from repro.solve.simplex_backend import SimplexBackend
from repro.solve.fm_backend import FourierMotzkinBackend

__all__ = [
    "LPBackend",
    "SolveOutcome",
    "SolveStats",
    "available_backends",
    "get_backend",
    "register_backend",
    "SimplexBackend",
    "FourierMotzkinBackend",
]
