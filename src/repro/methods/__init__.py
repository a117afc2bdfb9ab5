"""The four termination provers, a fixed name table, and the runner.

Drivers (CLI, batch workers, serve workers) resolve ``settings.method``
through :class:`MethodRunner`, which validates the settings once and
looks the name up in a fixed table; an unknown norm or method is one
:class:`~repro.errors.AnalysisError` at construction, listing the
method names.

The methods (see ``docs/METHODS.md`` for the guarantees):

``argsize``
    The paper's argument-size analysis — builds one
    :class:`~repro.core.pipeline.AnalysisPipeline` per query;
    certifying, two-valued, byte-identical to driving the pipeline
    directly.
``sizechange``
    Size-change termination / local level mappings over the bound
    argument sizes; proves lexicographic and multiset descents a
    single linear ranking misses (e.g. ``ackermann``).
``nonterm``
    A non-termination detector: static loop inference over binary
    unfoldings through solved body prefixes; upgrades the verdict
    model to PROVED/DISPROVED/UNKNOWN.
``portfolio``
    Argsize, then sizechange, then nonterm, with per-SCC provenance.
"""

from repro.errors import AnalysisError
from repro.core.pipeline import AnalyzerSettings, resolve_settings
from repro.methods.base import TerminationMethod, observed_analyze
from repro.methods.argsize import ArgSizeMethod
from repro.methods.sizechange import SizeChangeMethod
from repro.methods.nonterm import (
    NonTerminationMethod,
    find_static_loops,
    is_pure_program,
)
from repro.methods.portfolio import PortfolioMethod

__all__ = [
    "TerminationMethod",
    "available_methods",
    "get_method",
    "observed_analyze",
    "MethodRunner",
    "run_method",
    "ArgSizeMethod",
    "SizeChangeMethod",
    "NonTerminationMethod",
    "PortfolioMethod",
    "find_static_loops",
    "is_pure_program",
]

_METHODS = {
    "argsize": ArgSizeMethod,
    "sizechange": SizeChangeMethod,
    "nonterm": NonTerminationMethod,
    "portfolio": PortfolioMethod,
}


def available_methods():
    """The method names, sorted."""
    return tuple(sorted(_METHODS))


def get_method(name):
    """A fresh instance of the method called *name*.

    Unknown names raise :class:`~repro.errors.AnalysisError` listing
    the method names.
    """
    cls = _METHODS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise AnalysisError(
            "unknown termination method %r; choose from %s"
            % (name, ", ".join(available_methods()))
        )
    return cls()


class MethodRunner:
    """Validated settings + certificate cache + method, bound once.

    The drivers' dispatch point: construct one runner per
    (settings, cache) pair and call :meth:`analyze` per query.
    """

    def __init__(self, settings=None, certificate_cache=None):
        self.settings = settings or AnalyzerSettings()
        resolve_settings(self.settings)
        self.method = _METHODS[self.settings.method]()
        self.certificate_cache = certificate_cache

    def analyze(self, program, root, mode, request_id=None):
        """Analyze one query through the bound method, instrumented."""
        return observed_analyze(
            self.method, program, tuple(root), str(mode),
            settings=self.settings,
            certificate_cache=self.certificate_cache,
            request_id=request_id,
        )


def run_method(program, root, mode, settings=None, certificate_cache=None,
               request_id=None):
    """One-shot convenience: resolve ``settings.method`` and analyze."""
    runner = MethodRunner(settings, certificate_cache=certificate_cache)
    return runner.analyze(program, root, mode, request_id=request_id)
