"""The termination analyzer: query validation and the one-call entry point.

:func:`analyze_program` (or :class:`TerminationAnalyzer` for more
control) runs the full pipeline of the paper:

1. build the *adorned* dependency graph from the query mode — each
   (predicate, bound/free pattern) pair is its own analysis node, which
   realizes the paper's preprocessing assumption that "every predicate
   has the same bound-free adornment";
2. infer inter-argument constraints for every predicate (the [VG90]
   substrate, run for the whole program up front — Section 6.2 requires
   the SCC's own constraints to be available *before* its termination
   analysis);
3. per recursive SCC of the adorned graph (bottom-up): build Eq. 1
   systems for every rule × recursive-subgoal combination, dualize to
   lambda constraints, choose thetas, reject zero-weight cycles, and
   test feasibility; a feasible point yields the lambda certificate;
4. aggregate: the program terminates on the queried mode if every
   reachable recursive SCC has a certificate.

The staged execution itself lives in :mod:`repro.core.pipeline`
(named stages, per-stage traces, memoization); the final feasibility
test is the exact simplex of :mod:`repro.solve`.
:class:`TerminationAnalyzer` is another name for
:class:`~repro.core.pipeline.AnalysisPipeline`, which validates
settings eagerly, so misconfiguration fails at construction, not
mid-SCC.  This module adds the query validator and the one-call entry
point.

The verdict is ``PROVED`` or ``UNKNOWN`` — the method is a sufficient
condition (Section 7); ``UNKNOWN`` never means "diverges".  The
three-valued ``DISPROVED`` verdict exists one layer up, in
:mod:`repro.methods`, whose ``nonterm`` detector exhibits looping
derivations and whose ``portfolio`` driver races provers per SCC.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.lp.program import Program
from repro.core.pipeline import (
    DISPROVED,
    PROVED,
    UNKNOWN,
    AnalysisPipeline,
    AnalysisResult,
    AnalysisTrace,
    AnalyzerSettings,
    SCCResult,
    StageTrace,
)

__all__ = [
    "DISPROVED",
    "PROVED",
    "UNKNOWN",
    "AnalyzerSettings",
    "AnalysisResult",
    "AnalysisTrace",
    "SCCResult",
    "StageTrace",
    "TerminationAnalyzer",
    "analyze_program",
    "validate_query",
]


def validate_query(program, root, mode):
    """Check a (root, mode) query against a parsed program.

    A root naming an undefined predicate — or the right name at the
    wrong arity — used to sail through the pipeline and come back
    vacuously ``PROVED`` (no reachable SCCs), or surface as an opaque
    downstream :class:`~repro.errors.ModeError`.  Every request
    front end (the CLI, :func:`repro.batch.analyze_many` workers, and
    the ``repro.serve`` request validator) calls this first instead,
    so a typo'd root fails loudly, with the program's actual
    predicates in the message.

    Returns the normalized ``((name, arity), mode)`` pair; raises
    :class:`~repro.errors.AnalysisError` on any mismatch.
    """
    try:
        name, arity = tuple(root)
        arity = int(arity)
    except (TypeError, ValueError):
        raise AnalysisError(
            "root must be a (name, arity) pair, got %r" % (root,)
        ) from None
    mode = str(mode)
    defined = sorted(program.defined_indicators())
    if (name, arity) not in defined:
        same_name = ["%s/%d" % pair for pair in defined if pair[0] == name]
        if same_name:
            raise AnalysisError(
                "root %s/%d does not match the program: %s is defined "
                "with arity %s" % (name, arity, name,
                                   ", ".join(same_name))
            )
        raise AnalysisError(
            "root %s/%d is not defined by the program; defined "
            "predicates: %s"
            % (name, arity,
               ", ".join("%s/%d" % pair for pair in defined) or "(none)")
        )
    if len(mode) != arity:
        raise AnalysisError(
            "mode %r has %d positions but %s/%d needs %d"
            % (mode, len(mode), name, arity, arity)
        )
    bad = sorted(set(mode) - set("bf"))
    if bad:
        raise AnalysisError(
            "mode %r may use only 'b' (bound) and 'f' (free), got %s"
            % (mode, ", ".join(repr(c) for c in bad))
        )
    return (name, arity), mode


#: The analyzer is the pipeline: one class, two names.
TerminationAnalyzer = AnalysisPipeline


def analyze_program(program, root, mode, settings=None):
    """Convenience entry point.

    >>> from repro.lp import parse_program
    >>> program = parse_program(
    ...     "append([], Y, Y).\\n"
    ...     "append([X|Xs], Y, [X|Zs]) :- append(Xs, Y, Zs).")
    >>> analyze_program(program, ("append", 3), "bbf").status
    'PROVED'
    """
    if isinstance(program, str):
        program = Program.from_text(program)
    analyzer = TerminationAnalyzer(program, settings=settings)
    return analyzer.analyze(tuple(root), mode)
