"""Pluggable termination provers and the per-SCC portfolio.

Provers register under a name, drivers resolve ``settings.method``
through :func:`get_method` / :class:`MethodRunner`, and unknown names
fail at construction with the registered names listed.

Registered methods (see ``docs/METHODS.md`` for the guarantees):

``argsize``
    The paper's argument-size analysis — a thin adapter over
    :class:`~repro.core.analyzer.TerminationAnalyzer`; certifying,
    two-valued, byte-identical to driving the pipeline directly.
``sizechange``
    Size-change termination / local level mappings over the bound
    argument sizes; proves lexicographic and multiset descents a
    single linear ranking misses (e.g. ``ackermann``).
``nonterm``
    A non-termination detector: static loop inference over binary
    unfoldings through solved body prefixes; upgrades the verdict
    model to PROVED/DISPROVED/UNKNOWN.
``portfolio``
    Cheap-first race of the above with per-SCC provenance.
"""

from repro.methods.base import (
    MethodRunner,
    TerminationMethod,
    available_methods,
    get_method,
    observed_analyze,
    register_method,
    run_method,
)
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
    "register_method",
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
