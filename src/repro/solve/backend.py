"""The LP backend interface and registry.

The analyzer's final step — "is the lambda constraint system
feasible, and if so at which point?" — is the one place the pipeline
touches a numeric solver.  This module makes that step pluggable: an
:class:`LPBackend` takes a :class:`~repro.linalg.constraints.ConstraintSystem`
and returns a :class:`SolveOutcome` carrying the feasibility verdict,
a witness assignment, and per-solve statistics (rows in/out, pivots or
eliminations performed, wall time) that the staged pipeline folds into
its stage traces.

Backends self-register by name; :func:`get_backend` resolves a
``feasibility`` setting string to an instance at analyzer construction
time, so an unknown backend fails fast with one clear
:class:`~repro.errors.AnalysisError` instead of erroring mid-SCC.
Future scaling work (parallel SCCs, external LP libraries) plugs in
here without touching the analysis skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AnalysisError

_BACKENDS = {}


@dataclass
class SolveStats:
    """Cost telemetry for one feasibility solve.

    ``rows_in``/``rows_out`` — constraint rows given to the backend and
    rows of the final (reduced/eliminated) system it decided on.
    ``pivots`` — simplex tableau pivots; ``eliminations`` — variables
    removed by Fourier–Motzkin.  A backend fills in whichever of the
    two applies; ``wall_time`` is seconds.
    """

    backend: str = ""
    rows_in: int = 0
    rows_out: int = 0
    variables: int = 0
    pivots: int = 0
    eliminations: int = 0
    wall_time: float = 0.0


@dataclass
class SolveOutcome:
    """What a backend returns: verdict, witness, and statistics.

    ``witness`` is a ``{variable: Fraction}`` assignment satisfying the
    system when ``feasible`` is True, else None.
    """

    feasible: bool
    witness: dict = None
    stats: SolveStats = field(default_factory=SolveStats)


class LPBackend:
    """Interface every feasibility backend implements.

    Construction keyword options are backend-specific (unknown ones
    are ignored so one settings object can configure any backend);
    :meth:`feasible_point` is the single entry point;
    :meth:`feasible_points` decides several systems in one call.
    """

    name = "abstract"

    def __init__(self, **options):
        self.options = options

    def feasible_point(self, system):
        """Decide feasibility of *system*; return a :class:`SolveOutcome`."""
        raise NotImplementedError

    def feasible_points(self, systems):
        """Decide feasibility of every system; one outcome each, in
        order — a plain loop over :meth:`feasible_point`."""
        return [self.feasible_point(system) for system in systems]

    def __repr__(self):
        return "<backend %s>" % self.name


def register_backend(backend_class):
    """Register an :class:`LPBackend` subclass under its ``name``.

    Usable as a class decorator; re-registering a name overwrites it
    (latest wins), which lets tests install instrumented doubles.
    """
    if not (isinstance(backend_class, type)
            and issubclass(backend_class, LPBackend)):
        raise TypeError("expected an LPBackend subclass, got %r"
                        % (backend_class,))
    _BACKENDS[backend_class.name] = backend_class
    return backend_class


def available_backends():
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name, **options):
    """Resolve *name* to a fresh backend instance.

    Accepts an already-constructed :class:`LPBackend` verbatim (an
    extension point for callers supplying custom solvers).  Raises
    :class:`AnalysisError` for unknown names — the analyzer calls this
    at construction time, so bad settings fail before any SCC work.
    """
    if isinstance(name, LPBackend):
        return name
    try:
        backend_class = _BACKENDS[name]
    except KeyError:
        raise AnalysisError(
            "unknown feasibility backend %r; choose from %s"
            % (name, ", ".join(available_backends()))
        ) from None
    return backend_class(**options)
