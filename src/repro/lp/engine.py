"""A budgeted top-down SLD resolution engine.

Executes programs with the Prolog strategy the paper analyzes: top-down,
left-to-right goal selection, clauses tried in source order, depth-first
backtracking.  The engine exists to validate termination verdicts
*empirically*: a query against a procedure the analyzer proved
terminating must finish within a (generous) budget, and known
non-terminators must exhaust it.

Budgets
-------
``max_depth`` bounds the call-stack depth (goal-reduction nesting) and
``max_steps`` bounds the total number of clause-resolution attempts.
Exceeding either raises :class:`~repro.errors.EngineLimitError`;
:meth:`SLDEngine.terminates` converts that into a boolean verdict.

Supported builtins: ``=``, ``\\=``, ``==``, ``\\==``, comparison
operators over integer arithmetic, ``is``, ``true``, ``fail``, ``!``
(full cut semantics), and negation as failure for ``\\+``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import EngineLimitError, UnificationError
from repro.lp.program import BUILTIN_PREDICATES, Literal, Program
from repro.lp.terms import Atom, Struct, Term, Var, term_variables
from repro.lp.unify import apply_subst, rename_apart, unify


class _Cut(Exception):
    """Internal control signal carrying the barrier being cut to."""

    def __init__(self, barrier):
        self.barrier = barrier


@dataclass
class SolveResult:
    """Outcome of running a query.

    ``completed`` is True when the search space was fully explored
    within budget (the query *terminated*); otherwise the budget was
    exhausted and ``solutions`` holds whatever was found first.
    """

    solutions: list
    completed: bool
    steps: int
    max_depth_seen: int

    @property
    def succeeded(self):
        """True when at least one solution was found."""
        return bool(self.solutions)


class SLDEngine:
    """Top-down, left-to-right resolution over a :class:`Program`."""

    def __init__(self, program, occurs_check=False):
        if not isinstance(program, Program):
            raise TypeError("expected a Program, got %r" % (program,))
        self.program = program
        self.occurs_check = occurs_check
        self._barrier_counter = itertools.count(1)
        self._steps = 0
        self._max_steps = 0
        self._max_depth = 0
        self._max_depth_seen = 0

    # -- public API ---------------------------------------------------------

    def solve(self, query, max_depth=400, max_steps=200000, max_solutions=None):
        """Run *query* (text or list of Literals) to completion or budget.

        Returns a :class:`SolveResult`.  Each solution is a dict mapping
        the query's variables to their bound terms.
        """
        literals = self._normalize_query(query)
        query_vars = []
        for literal in literals:
            for var in term_variables(literal.atom):
                if var not in query_vars:
                    query_vars.append(var)

        self._steps = 0
        self._max_steps = max_steps
        self._max_depth = max_depth
        self._max_depth_seen = 0

        barrier = next(self._barrier_counter)
        goals = tuple((lit, barrier) for lit in literals)
        solutions = []
        completed = True

        # Deep SLD derivations nest several Python frames per goal
        # reduction; raise the interpreter limit so the *engine's*
        # depth budget is what decides, not CPython's.
        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 20 * max_depth + 1000))
        try:
            for subst in self._solve_goals(goals, {}, 0):
                solutions.append(
                    {var: apply_subst(var, subst) for var in query_vars}
                )
                if max_solutions is not None and len(solutions) >= max_solutions:
                    completed = True
                    break
        except _Cut:
            pass  # a top-level cut simply commits; search is complete
        except EngineLimitError:
            completed = False
        except RecursionError:
            completed = False  # treated like an exhausted depth budget
        finally:
            sys.setrecursionlimit(old_limit)
        return SolveResult(
            solutions=solutions,
            completed=completed,
            steps=self._steps,
            max_depth_seen=self._max_depth_seen,
        )

    def terminates(self, query, max_depth=400, max_steps=200000):
        """True if the full search for *query* finishes within budget."""
        return self.solve(query, max_depth=max_depth, max_steps=max_steps).completed

    # -- helpers --------------------------------------------------------------

    def _normalize_query(self, query):
        if isinstance(query, str):
            from repro.lp.parser import parse_query

            return [
                lit
                for term in parse_query(query)
                for lit in _term_to_literals(term)
            ]
        literals = []
        for item in query:
            if isinstance(item, Literal):
                literals.append(item)
            elif isinstance(item, Term):
                literals.extend(_term_to_literals(item))
            else:
                raise UnificationError("bad query element: %r" % (item,))
        return literals

    def _tick(self, depth):
        self._steps += 1
        self._max_depth_seen = max(self._max_depth_seen, depth)
        if self._steps > self._max_steps:
            raise EngineLimitError(
                "step budget exhausted", depth=depth, steps=self._steps
            )
        if depth > self._max_depth:
            raise EngineLimitError(
                "depth budget exhausted", depth=depth, steps=self._steps
            )

    # -- core search ----------------------------------------------------------

    def _solve_goals(self, goals, subst, depth):
        """Yield substitutions solving the (literal, barrier) sequence."""
        if not goals:
            yield subst
            return
        (literal, barrier), rest = goals[0], goals[1:]
        atom = apply_subst(literal.atom, subst)
        indicator = _indicator(atom)

        if indicator == ("!", 0):
            yield from self._solve_goals(rest, subst, depth)
            raise _Cut(barrier)

        if not literal.positive:
            if not self._provable(atom, subst, depth):
                yield from self._solve_goals(rest, subst, depth)
            return

        if indicator in BUILTIN_PREDICATES:
            for new_subst in self._solve_builtin(atom, indicator, subst, depth):
                yield from self._solve_goals(rest, new_subst, depth)
            return

        for new_subst in self._call(atom, indicator, subst, depth):
            yield from self._solve_goals(rest, new_subst, depth)

    def _call(self, atom, indicator, subst, depth):
        """Resolve a user-predicate call against its clauses."""
        clauses = self.program.clauses_for(indicator)
        barrier = next(self._barrier_counter)
        for clause in clauses:
            self._tick(depth)
            renamed = rename_apart(clause)
            new_subst = unify(
                atom, renamed.head, subst, occurs_check=self.occurs_check
            )
            if new_subst is None:
                continue
            goals = tuple((lit, barrier) for lit in renamed.body)
            try:
                yield from self._solve_goals(goals, new_subst, depth + 1)
            except _Cut as cut:
                if cut.barrier != barrier:
                    raise
                return

    def _provable(self, atom, subst, depth):
        """Negation as failure: does *atom* have at least one solution?"""
        barrier = next(self._barrier_counter)
        goals = ((Literal(atom), barrier),)
        try:
            for _ in self._solve_goals(goals, subst, depth + 1):
                return True
        except _Cut:
            return True
        return False

    # -- builtins --------------------------------------------------------------

    def _solve_builtin(self, atom, indicator, subst, depth):
        self._tick(depth)
        name, arity = indicator
        if name == "true":
            yield subst
            return
        if name == "fail":
            return
        args = atom.args if isinstance(atom, Struct) else ()
        if name == "=":
            new_subst = unify(
                args[0], args[1], subst, occurs_check=self.occurs_check
            )
            if new_subst is not None:
                yield new_subst
            return
        if name == "\\=":
            if unify(args[0], args[1], subst, occurs_check=self.occurs_check) is None:
                yield subst
            return
        if name == "==":
            if apply_subst(args[0], subst) == apply_subst(args[1], subst):
                yield subst
            return
        if name == "\\==":
            if apply_subst(args[0], subst) != apply_subst(args[1], subst):
                yield subst
            return
        if name == "is":
            value = Atom(_arith_eval(apply_subst(args[1], subst)))
            new_subst = unify(args[0], value, subst)
            if new_subst is not None:
                yield new_subst
            return
        if name in ("<", ">", "=<", ">="):
            left = _arith_eval(apply_subst(args[0], subst))
            right = _arith_eval(apply_subst(args[1], subst))
            outcome = {
                "<": left < right,
                ">": left > right,
                "=<": left <= right,
                ">=": left >= right,
            }[name]
            if outcome:
                yield subst
            return
        raise UnificationError("unhandled builtin %s/%d" % (name, arity))


def _indicator(atom):
    if isinstance(atom, Struct):
        return (atom.functor, atom.arity)
    return (atom.name, 0)


def _term_to_literals(term):
    """Translate a parsed goal term into literals (handling ``\\+``)."""
    if isinstance(term, Struct) and term.functor == "\\+" and term.arity == 1:
        return [Literal(term.args[0], positive=False)]
    return [Literal(term)]


_ARITH_OPS = {
    ("+", 2): lambda a, b: a + b,
    ("-", 2): lambda a, b: a - b,
    ("*", 2): lambda a, b: a * b,
    ("//", 2): lambda a, b: a // b,
    ("/", 2): lambda a, b: a // b,
    ("mod", 2): lambda a, b: a % b,
    ("^", 2): lambda a, b: a**b,
    ("-", 1): lambda a: -a,
    ("+", 1): lambda a: a,
}


def _arith_eval(term):
    """Evaluate an arithmetic expression over integer constants."""
    if isinstance(term, Atom) and isinstance(term.name, int):
        return term.name
    if isinstance(term, Var):
        raise UnificationError("arithmetic on unbound variable %s" % term)
    if isinstance(term, Struct):
        op = _ARITH_OPS.get((term.functor, term.arity))
        if op is not None:
            return op(*(_arith_eval(arg) for arg in term.args))
    raise UnificationError("not an arithmetic expression: %s" % term)
