"""Operator-precedence parser for the Prolog subset.

Implements a Pratt-style reader over the token stream with the standard
Prolog operator table (restricted to operators the corpus and the
paper's examples need).  Produces :class:`~repro.lp.terms.Term` trees;
clause and program assembly happens in :mod:`repro.lp.program`.

Supported syntax::

    perm(P, [X|L]) :- append(E, [X|F], P), append(E, F, P1), perm(P1, L).
    merge([X|Xs], [Y|Ys], [X|Zs]) :- X =< Y, merge([Y|Ys], Xs, Zs).
    q(Y) :- \\+ p(Y).

Lists desugar to the binary cons functor ``'.'`` with the atom ``[]``
as terminator, exactly the representation the paper's size equations
assume (``[X|L]`` has size ``2 + X + L``).

Terms nested deeper than :data:`MAX_TERM_DEPTH` are a syntax error:
the parser and every analysis stage walk terms recursively, so a
hostile input would otherwise end in a ``RecursionError``.
"""

from __future__ import annotations

from repro.errors import PrologSyntaxError
from repro.lp.terms import Atom, Struct, Term, Var, make_list
from repro.lp.tokenizer import (
    ATOM,
    END,
    EOF,
    INTEGER,
    PUNCT,
    Tokenizer,
    VARIABLE,
)

# Operator table: name -> (precedence, type).  Types follow ISO Prolog:
# xfx/xfy/yfx are infix, fy/fx prefix.  An argument of type ``x`` must
# have strictly smaller precedence; ``y`` allows equal precedence.
INFIX_OPERATORS = {
    ":-": (1200, "xfx"),
    "-->": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "=..": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
    "^": (200, "xfy"),
}

PREFIX_OPERATORS = {
    ":-": (1200, "fx"),
    "?-": (1200, "fx"),
    "\\+": (900, "fy"),
    "-": (200, "fy"),
    "+": (200, "fy"),
}

#: Maximum operator precedence; a whole clause is read at this level.
MAX_PRECEDENCE = 1200

#: Precedence of a bare term (atoms, functional notation, parenthesized).
PRIMARY_PRECEDENCE = 0

#: The deepest term the parser accepts.  Depth counts every compound
#: level, each cons cell of a list and each operator application
#: included; the parser's own recursion, which parentheses also drive,
#: is bounded by the same number.  Every stage of every termination
#: method walks a term this deep within the interpreter's default
#: recursion limit.
MAX_TERM_DEPTH = 128


class _Parser:
    """Recursive-descent / Pratt parser over a token list."""

    def __init__(self, text):
        self._tokens = list(Tokenizer(text).tokens())
        self._index = 0
        self._nesting = 0

    # -- token utilities -------------------------------------------------

    def _peek(self):
        return self._tokens[self._index]

    def _next(self):
        token = self._tokens[self._index]
        if token.kind != EOF:
            self._index += 1
        return token

    def _error(self, message, token=None):
        token = token or self._peek()
        raise PrologSyntaxError(
            "%s (found %s)" % (message, token),
            line=token.line,
            column=token.column,
        )

    def _check_depth(self, depth, token=None):
        if depth > MAX_TERM_DEPTH:
            self._error(
                "term nested deeper than %d levels" % MAX_TERM_DEPTH, token
            )

    def _expect_punct(self, text):
        token = self._next()
        if token.kind != PUNCT or token.text != text:
            self._error("expected %r" % text, token)
        return token

    def at_eof(self):
        """True when every token has been consumed."""
        return self._peek().kind == EOF

    # -- term reading -----------------------------------------------------

    def read_clause_term(self):
        """Read one term followed by a clause-terminating period."""
        term, _ = self.parse(MAX_PRECEDENCE)
        token = self._next()
        if token.kind != END:
            self._error("expected '.' at end of clause", token)
        return term

    def parse(self, max_precedence):
        """Read a term whose principal operator precedence is allowed;
        return ``(term, depth)``.

        *depth* is 0 for an atom, number or variable and one more than
        the deepest argument for a compound term.  ``_nesting`` bounds
        the recursion itself, before any depth is known.
        """
        self._check_depth(self._nesting)
        self._nesting += 1
        left, left_precedence, depth = self._parse_primary(max_precedence)
        result = self._parse_infix(left, left_precedence, depth,
                                   max_precedence)
        self._nesting -= 1
        return result

    def _parse_infix(self, left, left_precedence, depth, max_precedence):
        while True:
            token = self._peek()
            name = None
            if token.kind == ATOM and token.text in INFIX_OPERATORS:
                name = token.text
            elif (
                token.kind == PUNCT
                and token.text == ","
                and max_precedence >= 1000
            ):
                name = ","
            if name is None:
                return left, depth
            precedence, op_type = INFIX_OPERATORS[name]
            if precedence > max_precedence:
                return left, depth
            left_max = precedence if op_type == "yfx" else precedence - 1
            if left_precedence > left_max:
                return left, depth
            self._next()
            right_max = precedence if op_type == "xfy" else precedence - 1
            right, right_depth = self.parse(right_max)
            depth = 1 + max(depth, right_depth)
            self._check_depth(depth, token)
            left = Struct(name, (left, right))
            left_precedence = precedence

    def _parse_primary(self, max_precedence):
        """Read a primary term; return (term, its precedence, depth)."""
        token = self._next()

        if token.kind == INTEGER:
            return Atom(int(token.text)), PRIMARY_PRECEDENCE, 0

        if token.kind == VARIABLE:
            return self._make_variable(token), PRIMARY_PRECEDENCE, 0

        if token.kind == PUNCT:
            if token.text == "(":
                term, depth = self.parse(MAX_PRECEDENCE)
                self._expect_punct(")")
                return term, PRIMARY_PRECEDENCE, depth
            if token.text == "[":
                term, depth = self._parse_list()
                return term, PRIMARY_PRECEDENCE, depth
            if token.text == "!":
                return Atom("!"), PRIMARY_PRECEDENCE, 0
            self._error("unexpected token", token)

        if token.kind == ATOM:
            return self._parse_atom_or_call(token, max_precedence)

        self._error("unexpected token", token)

    _anonymous_counter = 0

    def _make_variable(self, token):
        if token.text == "_":
            # Each bare underscore is a fresh variable.
            _Parser._anonymous_counter += 1
            return Var("_G%d" % _Parser._anonymous_counter)
        return Var(token.text)

    def _parse_atom_or_call(self, token, max_precedence):
        name = token.text
        following = self._peek()

        # Functional notation binds tightest:  name( arg, ... )
        # Only when the "(" immediately follows (no layout) per ISO; we
        # accept any "(" here as the corpus never relies on the nuance.
        if following.kind == PUNCT and following.text == "(":
            self._next()
            args, depth = self._parse_arguments()
            self._check_depth(depth + 1, token)
            return Struct(name, tuple(args)), PRIMARY_PRECEDENCE, depth + 1

        # Prefix operator (unless something that can't start a term follows).
        if name in PREFIX_OPERATORS and self._starts_term(following):
            precedence, op_type = PREFIX_OPERATORS[name]
            if precedence <= max_precedence:
                arg_max = precedence if op_type == "fy" else precedence - 1
                # Special case: negative integer literal.
                if name == "-" and following.kind == INTEGER:
                    value = self._next()
                    return Atom(-int(value.text)), PRIMARY_PRECEDENCE, 0
                argument, depth = self.parse(arg_max)
                self._check_depth(depth + 1, token)
                return Struct(name, (argument,)), precedence, depth + 1

        return Atom(name), PRIMARY_PRECEDENCE, 0

    def _starts_term(self, token):
        if token.kind in (INTEGER, VARIABLE):
            return True
        if token.kind == ATOM:
            # An infix operator cannot start a term (except ones that are
            # also prefix; keep it simple: any atom may start a term).
            return True
        if token.kind == PUNCT and token.text in ("(", "["):
            return True
        return False

    def _parse_arguments(self):
        """Read ``arg, arg, ... )`` — each arg below the ',' precedence;
        return the arguments and the deepest one's depth."""
        arg, depth = self.parse(999)
        args = [arg]
        while True:
            token = self._next()
            if token.kind == PUNCT and token.text == ")":
                return args, depth
            if token.kind == PUNCT and token.text == ",":
                arg, arg_depth = self.parse(999)
                args.append(arg)
                depth = max(depth, arg_depth)
                continue
            self._error("expected ',' or ')' in argument list", token)

    def _parse_list(self):
        """Read ``[ ... ]`` list syntax, desugaring to cons cells;
        return the list and its depth.

        The k-th element (1-based) sits under k cons cells, and the
        tail under all of them.
        """
        token = self._peek()
        if token.kind == PUNCT and token.text == "]":
            self._next()
            return Atom("[]"), 0
        elements = []
        depth = 0
        while True:
            element, element_depth = self.parse(999)
            elements.append(element)
            depth = max(depth, len(elements) + element_depth)
            self._check_depth(depth, token)
            token = self._next()
            if token.kind == PUNCT and token.text == "]":
                return make_list(elements), depth
            if token.kind == PUNCT and token.text == ",":
                continue
            if token.kind == PUNCT and token.text == "|":
                tail, tail_depth = self.parse(999)
                depth = max(depth, len(elements) + tail_depth)
                self._check_depth(depth, token)
                self._expect_punct("]")
                return make_list(elements, tail=tail), depth
            self._error("expected ',', '|' or ']' in list", token)


def parse_term(text):
    """Parse a single term (no trailing period required)."""
    parser = _Parser(text)
    term, _ = parser.parse(MAX_PRECEDENCE)
    token = parser._peek()
    if token.kind == END:
        parser._next()
        token = parser._peek()
    if token.kind != EOF:
        parser._error("trailing input after term")
    return term


def parse_clause_terms(text):
    """Parse period-terminated clause terms from *text*."""
    parser = _Parser(text)
    terms = []
    while not parser.at_eof():
        terms.append(parser.read_clause_term())
    return terms


def parse_query(text):
    """Parse a query body (a goal conjunction) into a list of terms.

    Accepts ``p(X), q(X)`` with or without a trailing period.
    """
    term = parse_term(text)
    return _flatten_conjunction(term)


def _flatten_conjunction(term):
    if isinstance(term, Struct) and term.functor == "," and term.arity == 2:
        return _flatten_conjunction(term.args[0]) + _flatten_conjunction(
            term.args[1]
        )
    return [term]


def parse_program(text):
    """Parse Prolog source text into a :class:`repro.lp.program.Program`."""
    from repro.lp.program import Program

    return Program.from_clause_terms(parse_clause_terms(text))
