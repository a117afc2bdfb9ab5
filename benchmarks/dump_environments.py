#!/usr/bin/env python
"""Dump every inferred inter-argument environment, one line a predicate.

The [VG90] polyhedra the fixpoint infers are what every argsize proof
rests on, and widening and weakening read rows, not point sets, so a
change to the hull, the projection or the fixpoint can change them
without changing any verdict.  This script prints them in one
canonical form, so that two checkouts can be diffed:

    PYTHONPATH=src python -m benchmarks.dump_environments > envs.txt

Each line is ``join norm program name/arity: rows``, the rows in the
order the polyhedron stores them, joined by `` ; `` (``top`` when there
are none).  The programs are the corpus, the F1 ``scaling`` family and
``wide(10)``/``wide(12)``; the norms are all three, the joins
``exact`` and ``weak``.  Every inference is cold (no cache).  The last
line is ``sha256 <hex> <n> lines``, over the lines before it; two
checkouts infer the same environments, byte for byte, iff the digests
agree.
"""

from __future__ import annotations

import hashlib

from repro.corpus import all_programs
from repro.interarg import InferenceSettings, infer_interargument_constraints
from repro.lp import parse_program

from bench.inputs import SCALING, scaling_job, wide_program

NORMS = ("structural", "list_length", "right_spine")
JOINS = ("exact", "weak")

#: Past the F1 ``scaling`` family: the two wide programs it leaves out.
WIDE_PAST_SCALING = (10, 12)


def programs():
    """``(name, source)`` for every program the dump covers."""
    corpus = [(entry.name, entry.source) for entry in all_programs()]
    scaling = [scaling_job(family, size) for family, size in SCALING]
    return (
        corpus
        + [(job.name, job.source) for job in scaling]
        + [("wide%d" % a, wide_program(a)) for a in WIDE_PAST_SCALING]
    )


def environment_lines(named_sources, norms=NORMS, joins=JOINS):
    """The canonical lines of every inferred polyhedron, in the order
    join, norm, program, predicate indicator."""
    parsed = [(name, parse_program(source)) for name, source in named_sources]
    lines = []
    for join in joins:
        settings = InferenceSettings(join_strategy=join)
        for norm in norms:
            for name, program in parsed:
                env = infer_interargument_constraints(
                    program, norm, settings=settings
                )
                for (predicate, arity), poly in sorted(env.items()):
                    rows = " ; ".join(str(row) for row in poly.system)
                    lines.append("%s %s %s %s/%d: %s" % (
                        join, norm, name, predicate, arity, rows or "top",
                    ))
    return lines


def digest_line(lines):
    """``sha256 <hex> <n> lines`` over *lines*, each ended by a newline."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return "sha256 %s %d lines" % (digest.hexdigest(), len(lines))


def main():
    lines = environment_lines(programs())
    for line in lines:
        print(line)
    print(digest_line(lines))


if __name__ == "__main__":
    main()
