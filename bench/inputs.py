"""Seeded workload inputs and the output oracle.

Every input is a pure function of the workload name and the seed.
The set of inputs is the same on every seed, so every seed does the
same work; the seed shuffles their order and names the fresh facts of
the serve edits.  The program under test only ever sees the generated
inputs.

The oracle is ground truth, never the program's own earlier output:
``CorpusProgram.terminating`` and ``expected["paper"]`` from the
corpus, PROVED for every scaling instance, HTTP 400 for hostile
requests, and byte-identical bodies for repeated identical requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.corpus import all_programs, get_program

__all__ = [
    "LIBRARY_WORKLOADS",
    "Job",
    "Request",
    "check_job",
    "classify_response",
    "deep_term_body",
    "library_jobs",
    "serve_programs",
    "serve_requests",
    "warm_up_bodies",
    "wide_program",
    "zipf_counts",
]

LIBRARY_WORKLOADS = ("corpus-cold", "portfolio-hard", "scaling")

DECIDED = ("PROVED", "DISPROVED")

#: The corpus programs the argsize method leaves UNKNOWN.
PORTFOLIO_HARD = (
    "ackermann", "bounded_counter", "mergesort", "seesaw", "example_a1",
    "tc_left_recursive", "loop_direct", "loop_mutual", "loop_growing",
    "loop_swap", "count_up",
)

#: The nine slowest corpus programs (0.8-5 s cold each).  The serve mix
#: leaves them out so one pass stays near 20 s; corpus-cold has them.
SERVE_EXCLUDED = (
    "hanoi", "ackermann", "bounded_counter", "fib_peano", "gcd_euclid",
    "quicksort", "mergesort", "merge_classic", "merge_variant",
)

#: F1 families and sizes, generated here so that this directory stands
#: alone.  wide(10) raises ``ValueError: join requires identical
#: dimension lists`` and is probed outside the timed set.
SCALING = (
    ("ring", 8), ("ring", 12), ("ring", 16), ("ring", 20),
    ("chain", 8), ("chain", 16), ("chain", 32),
    ("wide", 2), ("wide", 4), ("wide", 8),
)

SERVE_REQUESTS = 800
SERVE_EDITS = 120
SERVE_HOSTILE = 40
ZIPF_EXPONENT = 1.0

#: Analyzed before timing starts, so that first-call costs (lazy
#: imports, the interpreter specializing hot code) land in set-up, not
#: on whichever input the seed puts first: one program argsize proves,
#: and one loop that only nonterm decides.
WARM_UP = (
    ("w(0).\nw(s(X)) :- w(X).\n", ("w", 1), "b"),
    ("v(X) :- v(X).\n", ("v", 1), "b"),
)


@dataclass(frozen=True)
class Job:
    """One library analysis and the verdicts the oracle accepts."""

    name: str
    source: str
    root: tuple
    mode: str
    allowed: tuple


def ring_program(k):
    """p1 -> p2 -> ... -> pk -> p1, the argument shrinks at every hop."""
    lines = ["p1(0)."]
    for i in range(1, k + 1):
        lines.append("p%d(s(X)) :- p%d(X)." % (i, i % k + 1))
    return "\n".join(lines) + "\n"


def chain_program(k):
    """q1 calls q2 calls ... qk; each qi also recurses on a list."""
    lines = []
    for i in range(1, k + 1):
        lines.append("q%d([], [])." % i)
        if i < k:
            lines.append("q%d([X|Xs], [X|Ys]) :- q%d(Xs, Zs), q%d(Zs, Ys)."
                         % (i, i, i + 1))
        else:
            lines.append("q%d([X|Xs], [X|Ys]) :- q%d(Xs, Ys)." % (i, i))
    return "\n".join(lines) + "\n"


def wide_program(arity):
    """r(s(X1), ..., s(Xa)) :- r(X1, ..., Xa)."""
    head = ", ".join("s(X%d)" % i for i in range(arity))
    body = ", ".join("X%d" % i for i in range(arity))
    zeros = ", ".join("0" for _ in range(arity))
    return "r(%s).\nr(%s) :- r(%s).\n" % (zeros, head, body)


def scaling_job(family, size):
    """The :class:`Job` for one F1 instance; every one must be PROVED."""
    if family == "ring":
        source, root, mode = ring_program(size), ("p1", 1), "b"
    elif family == "chain":
        source, root, mode = chain_program(size), ("q1", 2), "bf"
    elif family == "wide":
        source, root, mode = wide_program(size), ("r", size), "b" * size
    else:
        raise ValueError("unknown scaling family %r" % family)
    return Job("%s%d" % (family, size), source, root, mode, ("PROVED",))


def _corpus_job(entry, allowed):
    return Job(entry.name, entry.source, tuple(entry.root), entry.mode,
               tuple(allowed))


def _sound_verdicts(entry):
    """Verdicts that do not contradict the program's known behaviour."""
    if entry.terminating is True:
        return ("PROVED", "UNKNOWN")
    if entry.terminating is False:
        return ("DISPROVED", "UNKNOWN")
    return ("UNKNOWN",)


def library_jobs(workload, seed):
    """The seeded job list of a library workload."""
    if workload == "corpus-cold":
        jobs = [_corpus_job(entry, (entry.expected["paper"],))
                for entry in all_programs()]
    elif workload == "portfolio-hard":
        jobs = [_corpus_job(entry, _sound_verdicts(entry))
                for entry in map(get_program, PORTFOLIO_HARD)]
    elif workload == "scaling":
        jobs = [scaling_job(family, size) for family, size in SCALING]
    else:
        raise ValueError("not a library workload: %r" % workload)
    random.Random(seed).shuffle(jobs)
    return jobs


def check_job(job, status):
    """None when *status* is acceptable for *job*, else the error kind."""
    if status == "ERROR":
        return "exception"
    if status not in job.allowed:
        return "wrong_verdict"
    return None


# -- serve-mixed ---------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One serve request and what the oracle expects back.

    ``kind`` is ``unedited``, ``edit`` or ``hostile``; ``program`` the
    corpus name (or the hostile variant); ``verdict`` the expected
    ``status`` field of a 200 body, None for hostile requests.
    """

    kind: str
    program: str
    body: dict = field(hash=False)
    expect_status: int = 200
    verdict: str = None


def serve_programs():
    """The corpus programs the serve mix draws from, in corpus order
    (which is also their Zipf rank)."""
    return tuple(entry for entry in all_programs()
                 if entry.name not in SERVE_EXCLUDED)


def _wire(entry, source=None, **extra):
    body = {
        "source": entry.source if source is None else source,
        "root": "%s/%d" % tuple(entry.root),
        "mode": entry.mode,
    }
    body.update(extra)
    return body


def _edited_source(entry, tag):
    """The program with one fresh ground fact appended to its root."""
    name, arity = entry.root
    args = ", ".join("%s_%d" % (tag, i) for i in range(arity))
    fact = "%s(%s)." % (name, args) if arity else "%s." % name
    return entry.source.rstrip() + "\n" + fact + "\n"


def _hostile(index):
    entry = get_program("append_bbf")
    variant = ("syntax", "undefined_root", "unknown_method")[index % 3]
    if variant == "syntax":
        body = _wire(entry, source="p(X :- q(X.\n")
    elif variant == "undefined_root":
        body = dict(_wire(entry), root="no_such_pred/2")
    else:
        body = _wire(entry, settings={"method": "no_such_method"})
    return Request("hostile", variant, body, expect_status=400)


def zipf_counts(size, total, exponent=ZIPF_EXPONENT):
    """*total* split over *size* ranks in proportion to
    ``1 / rank ** exponent``, rounded by largest remainder."""
    weights = [1.0 / rank ** exponent for rank in range(1, size + 1)]
    shares = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(size),
                          key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[:total - sum(counts)]:
        counts[index] += 1
    return counts


def serve_requests(seed):
    """The seeded serve-mixed request list.

    The mix is the same on every seed, so every seed does the same
    work: each of the 33 programs once unedited (its cold solve), the
    other unedited requests and the edits in Zipf proportion to the
    programs' rank, and the hostile requests.  The seed shuffles the
    order and names the fresh facts.  Edits append a fresh fact to the
    root with ``incremental: true``; hostile requests expect 400.
    """
    programs = serve_programs()
    unedited = SERVE_REQUESTS - SERVE_EDITS - SERVE_HOSTILE
    repeats = zipf_counts(len(programs), unedited - len(programs))
    edits = zipf_counts(len(programs), SERVE_EDITS)
    requests = []
    for entry, count in zip(programs, repeats):
        requests.extend(
            [Request("unedited", entry.name, _wire(entry),
                     verdict=entry.expected["paper"])] * (1 + count)
        )
    tags = iter(range(SERVE_EDITS))
    for entry, count in zip(programs, edits):
        for _ in range(count):
            source = _edited_source(entry, "e%d_%d" % (seed, next(tags)))
            requests.append(Request(
                "edit", entry.name, _wire(entry, source, incremental=True),
                verdict=entry.expected["paper"],
            ))
    requests.extend(_hostile(index) for index in range(SERVE_HOSTILE))
    random.Random(seed).shuffle(requests)
    return requests


def warm_up_bodies():
    """Serve requests for the :data:`WARM_UP` programs: each one cold,
    repeated (a store hit) and edited (``incremental: true``)."""
    bodies = []
    for source, (name, arity), mode in WARM_UP:
        body = {"source": source, "root": "%s/%d" % (name, arity),
                "mode": mode}
        edited = dict(body, source=source + "%s(w_fact).\n" % name,
                      incremental=True)
        bodies.extend([body, body, edited])
    return bodies


def deep_term_body(depth=500):
    """A request whose source nests a term *depth* deep — a known
    failure (the daemon drops the connection), so it is sent once,
    outside the timed set."""
    term = "a"
    for _ in range(depth):
        term = "f(%s)" % term
    return {"source": "p(%s).\n" % term, "root": "p/1", "mode": "b"}


def classify_response(request, status, body, first_body=None):
    """None when the response is correct, else the error kind.

    *status* is the HTTP status, or None when no response arrived (the
    connection dropped); *first_body* is the body of the first answer
    to the same unedited request, which a repeat must equal byte for
    byte.
    """
    if status is None:
        return "dropped"
    if status != request.expect_status:
        return "unexpected_status"
    if request.verdict is not None:
        try:
            verdict = json.loads(body).get("status")
        except (ValueError, AttributeError):
            return "wrong_verdict"
        if verdict != request.verdict:
            return "wrong_verdict"
    if first_body is not None and body != first_body:
        return "repeat_differs"
    return None
