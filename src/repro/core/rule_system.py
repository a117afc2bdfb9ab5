"""Per rule × recursive-subgoal size systems — the paper's Eq. 1.

For a rule with head ``p_i`` (under a given adornment) and a chosen
recursive subgoal ``p_j``, collect

    x = a + A.phi      (bound-argument sizes of the head)
    y = b + B.phi      (bound-argument sizes of the recursive subgoal)
    constraints(phi)   (imported inter-argument constraints of the
                        subgoals *preceding* p_j, instantiated on their
                        actual arguments; the paper's ``0 = c + C.phi``)
    phi >= 0

where ``phi`` collects the sizes of the rule's logical variables.  The
``(a, A)`` and ``(b, B)`` data are nonnegative by construction of the
norm — the fact the paper exploits to eliminate the dual variables
``u, v`` in closed form.

Analysis nodes are :class:`~repro.core.adornment.AdornedPredicate`
values: "recursive" means the body literal's (predicate, call
adornment) pair lies in the same SCC of the *adorned* dependency graph.

Negation is handled per Appendix D: negative subgoals preceding the
recursive subgoal are discarded (they bind nothing and contribute no
sizes); a *negative* recursive subgoal is analyzed as though positive.

Nonlinear recursion per Section 6.2: recursive subgoals preceding the
chosen one contribute their inter-argument constraints exactly like
lower-SCC subgoals — which is why inter-argument inference for the
whole SCC runs before termination analysis starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lp.program import BUILTIN_PREDICATES
from repro.linalg.constraints import Constraint
from repro.sizes.norms import get_norm
from repro.sizes.size_equations import argument_size_exprs
from repro.interarg.domain import literal_constraints
from repro.core.adornment import AdornedPredicate, clause_call_adornments


@dataclass
class RuleSizeSystem:
    """Eq. 1 data for one (rule, recursive-subgoal) combination."""

    clause: object
    head_node: AdornedPredicate
    subgoal_node: AdornedPredicate
    subgoal_position: int      # 0-based index into the clause body
    x_exprs: list              # size polynomials of bound head args
    x_positions: tuple         # 1-based bound arg positions of the head
    y_exprs: list              # size polynomials of bound subgoal args
    y_positions: tuple
    imported: list = field(default_factory=list)  # constraints over phi

    @property
    def edge(self):
        """The adorned dependency edge this combination belongs to."""
        return (self.head_node, self.subgoal_node)

    def phi_variables(self):
        """Every size variable appearing anywhere in the system."""
        names = set()
        for expr in self.x_exprs:
            names |= expr.variables()
        for expr in self.y_exprs:
            names |= expr.variables()
        for constraint in self.imported:
            names |= constraint.variables()
        return sorted(names, key=repr)

    def describe(self):
        """Human-readable rendering."""
        lines = [
            "rule: %s" % self.clause,
            "recursive subgoal #%d: %s"
            % (self.subgoal_position, self.subgoal_node),
            "x (bound head args %s): %s"
            % (list(self.x_positions), [str(e) for e in self.x_exprs]),
            "y (bound subgoal args %s): %s"
            % (list(self.y_positions), [str(e) for e in self.y_exprs]),
        ]
        if self.imported:
            lines.append("imported constraints:")
            lines.extend("  %s" % c for c in self.imported)
        return "\n".join(lines)


def scc_rule_systems(program, members, env, norm="structural"):
    """Every :class:`RuleSizeSystem` of one SCC: each member's clauses
    against every recursive subgoal, in member and clause order."""
    systems = []
    for node in members:
        for clause in program.clauses_for(node.indicator):
            systems.extend(
                build_rule_systems(clause, node, members, env, norm)
            )
    return systems


def build_rule_systems(clause, head_node, scc_nodes, env, norm="structural"):
    """All :class:`RuleSizeSystem` objects for one clause analyzed as
    part of *head_node*'s SCC.

    Parameters
    ----------
    clause:
        A rule of ``head_node.indicator``.
    head_node:
        The adorned predicate the clause is being analyzed under.
    scc_nodes:
        The set of :class:`AdornedPredicate` members of the SCC.
    env:
        A :class:`~repro.interarg.domain.SizeEnvironment` supplying
        imported inter-argument constraints.
    """
    norm = get_norm(norm)
    scc_nodes = set(scc_nodes)
    body_adornments = clause_call_adornments(clause, head_node.adornment)

    systems = []
    for position, (literal, adornment) in enumerate(
        zip(clause.body, body_adornments)
    ):
        if literal.indicator in BUILTIN_PREDICATES:
            continue
        subgoal_node = AdornedPredicate(literal.indicator, adornment)
        if subgoal_node not in scc_nodes:
            continue
        systems.append(
            _build_one(clause, head_node, subgoal_node, position, env, norm)
        )
    return systems


def _build_one(clause, head_node, subgoal_node, position, env, norm):
    subgoal = clause.body[position]

    head_sizes = argument_size_exprs(clause.head, norm)
    subgoal_sizes = argument_size_exprs(subgoal.atom, norm)

    x_positions = head_node.bound_positions()
    y_positions = subgoal_node.bound_positions()
    x_exprs = [head_sizes[i - 1] for i in x_positions]
    y_exprs = [subgoal_sizes[i - 1] for i in y_positions]

    imported = []
    for earlier in clause.body[:position]:
        imported.extend(_imported_for(earlier, env, norm))

    return RuleSizeSystem(
        clause=clause,
        head_node=head_node,
        subgoal_node=subgoal_node,
        subgoal_position=position,
        x_exprs=x_exprs,
        x_positions=x_positions,
        y_exprs=y_exprs,
        y_positions=y_positions,
        imported=imported,
    )


def _imported_for(literal, env, norm):
    """Constraints contributed by a subgoal preceding the recursive one."""
    if not literal.positive:
        return []  # Appendix D: discard preceding negative subgoals
    constraints = literal_constraints(literal, env, norm)
    if constraints is None:
        # No derivable facts: the recursive subgoal is unreachable via
        # this rule; an always-false import makes the pair vacuous.
        return [Constraint.ge(-1)]
    return constraints
