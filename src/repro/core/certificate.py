"""Termination certificates.

A proof for one SCC is the data a skeptic needs to re-check the
argument independently (see :mod:`repro.core.verifier`):

- the norm used,
- the SCC's adorned predicates (each carries its bound/free pattern),
- the lambda vector per adorned predicate (nonnegative weights over its
  bound argument positions),
- the chosen theta per dependency edge,
- the rule systems (Eq. 1 data) the decrease claims range over.

The whole-program certificate aggregates SCC proofs bottom-up: by
induction over the SCC DAG, if every recursive SCC's weighted bound
size strictly decreases around every cycle (and lower SCCs terminate),
top-down evaluation of the root query terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SCCProof:
    """Certificate for a single strongly connected component."""

    members: tuple                 # AdornedPredicate nodes
    norm: str
    lambdas: dict                  # node -> {position: Fraction}
    thetas: dict                   # (node_i, node_j) edge -> Fraction
    rule_systems: list = field(default_factory=list)
    trivially_nonrecursive: bool = False

    def lambda_for(self, node):
        """The lambda weights of one member node."""
        return dict(self.lambdas.get(node, {}))

    def measure_description(self, node):
        """Human-readable weighted-size measure for a predicate."""
        weights = self.lambdas.get(node, {})
        terms = [
            "%s*|arg%d|" % (value, position)
            for position, value in sorted(weights.items())
            if value != 0
        ]
        return " + ".join(terms) if terms else "0"

    def describe(self):
        """Human-readable rendering."""
        if self.trivially_nonrecursive:
            return "SCC %s: non-recursive (terminates trivially)" % (
                _names(self.members),
            )
        lines = ["SCC %s: proved terminating" % (_names(self.members),)]
        for node in self.members:
            lines.append(
                "  measure[%s] = %s" % (node, self.measure_description(node))
            )
        for (i, j), value in sorted(self.thetas.items(), key=repr):
            lines.append("  theta[%s -> %s] = %s" % (i, j, value))
        return "\n".join(lines)


@dataclass
class TerminationProof:
    """Whole-program certificate: one :class:`SCCProof` per SCC."""

    root: tuple                    # queried indicator
    root_mode: str
    norm: str
    scc_proofs: list = field(default_factory=list)

    def proof_for(self, node):
        """The SCCProof containing *node*, or None."""
        for proof in self.scc_proofs:
            if node in proof.members:
                return proof
        return None

    def describe(self):
        """Human-readable rendering."""
        lines = [
            "Termination proof for %s/%d with mode %s (norm: %s)"
            % (self.root[0], self.root[1], self.root_mode, self.norm)
        ]
        for proof in self.scc_proofs:
            lines.append(proof.describe())
        return "\n".join(lines)


@dataclass(frozen=True)
class LoopEntry:
    """How a root query reaches a loop of another predicate: the
    derived binary clause ``head <- body`` composed from the program
    clauses at indices ``chain`` (their prefixes solved by the unit
    clauses in ``prefixes``), with ``body`` an instance of the loop's
    head: ``body == loop head . sigma``."""

    chain: tuple                   # program clause indices, in order
    prefixes: tuple                # per clause, unit clause indices
    head: object
    body: object
    sigma: dict


@dataclass(frozen=True)
class LoopWitness:
    """Certificate of a DISPROVED verdict (see
    :func:`repro.core.verifier.verify_loop`).

    The binary clauses of the program clauses at indices ``chain``
    compose to ``head <- body``.  Step ``k`` calls the first user
    literal of clause ``chain[k]`` left unsolved once ``=``/``true`` and
    the unit clauses at indices ``prefixes[k]`` (one per user literal,
    in order) have solved the literals before it.

    ``criterion`` 1: ``body == head . theta`` -- every call matching
    ``head`` calls an instance of ``head`` again, so each such call
    diverges; ``query`` is a root query in ``mode`` that is an instance
    of ``head``, or, when ``entry`` is set, of ``entry.head``, whose
    calls reach the loop.  ``criterion`` 2: ``head == body . theta`` --
    the call ``head`` calls the more general ``body``, which replays the
    same steps forever; ``query`` is ``head`` itself, up to renaming.
    """

    chain: tuple                   # program clause indices, in order
    prefixes: tuple                # per clause, unit clause indices
    head: object
    body: object
    theta: dict
    query: object
    mode: str
    entry: LoopEntry = None
    criterion: int = 1


def _names(members):
    return "{%s}" % ", ".join(str(m) for m in members)
