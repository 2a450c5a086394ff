"""Parser for the plain-text model format.

A model file declares a discrete-time system::

    system drive
    states: x1 x2
    inputs: u1
    equilibrium: all zero        # or:  equilibrium: x1 = 1, u1 = 1/2
    next x1 = x2
    next x2 = u1

Expressions use +, -, *, /, integer powers with ^, parentheses, rational
literals and declared identifiers.  ``#`` starts a comment.  Identifiers are
a letter followed by letters or digits; underscores are reserved for
generated coordinate names, and ``y<digits>`` is reserved for flat outputs.

One parser reads every expression and builds its value with one of two
sets of actions from symbolic: ``Fractions`` for the equilibrium values
and the elements of ``system.update_elements`` and ``parse_elements``,
and ``Expressions`` for the expressions of ``system.update``, symbolic's
own, with the structure of those that sympy's operators build.  A
number token is read by ``symbolic.rational`` into the kernel's rational
number, and so are the equilibrium values.
"""

from __future__ import annotations

import functools
import hashlib
import re

from . import symbolic
from .errors import ModelSyntaxError, ModelSemanticsError
from .model import DiscreteTimeSystem

_TOKEN_SPEC = [
    ("NUMBER", r"\d+\.\d*|\.\d+|\d+"),
    ("IDENT", r"[A-Za-z][A-Za-z0-9_]*"),
    ("OP", r"[+\-*/^()=,:]"),
    ("COMMENT", r"#[^\n]*"),
    ("WS", r"[ \t\r]+"),
    ("NEWLINE", r"\n"),
    ("BAD", r"."),
]
_TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % p for p in _TOKEN_SPEC))

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_RESERVED_RE = re.compile(r"y\d+\Z")

_KEYWORDS = {"system", "states", "inputs", "equilibrium", "next", "all", "zero"}


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return "_Token(%r, %r, %d, %d)" % (self.kind, self.text, self.line, self.column)


def _tokenize_line(text, line_no):
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind in ("WS", "COMMENT"):
            continue
        col = match.start() + 1
        if kind == "BAD":
            raise ModelSyntaxError("unexpected character %r" % match.group(), line_no, col)
        tokens.append(_Token(kind, match.group(), line_no, col))
    return tokens


class _ExprParser:
    """Precedence-climbing parser for the expression sublanguage.  The
    actions (number, symbol, add, mul, neg, power) build the value:
    symbolic.Expressions or symbolic.Fractions; a - b is built as
    a + (-b), and a / b as a * b^-1.  Parsing starts at the token index
    start; the tokens before it only place the end of an empty
    expression."""

    def __init__(self, tokens, symbols, line_no, actions=symbolic.Expressions, start=0):
        self.tokens = tokens
        self.pos = start
        self.symbols = symbols
        self.line_no = line_no
        self.actions = actions

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ModelSyntaxError(
                "unexpected end of expression", self.line_no, self._end_column()
            )
        self.pos += 1
        return tok

    def _end_column(self):
        last = self.tokens[-1]
        return last.column + len(last.text)

    def parse(self):
        e = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ModelSyntaxError("unexpected %r" % tok.text, tok.line, tok.column)
        return e

    def _expr(self):
        e = self._term()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "OP" and tok.text in "+-":
                self._next()
                rhs = self._term()
                e = self.actions.add(e, rhs if tok.text == "+" else self.actions.neg(rhs))
            else:
                return e

    def _term(self):
        e = self._unary()
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "OP" and tok.text in "*/":
                self._next()
                rhs = self._unary()
                if tok.text == "/":
                    rhs = self._dividing(tok, rhs, -1)
                e = self.actions.mul(e, rhs)
            else:
                return e

    def _dividing(self, tok, x, k):
        """x to the integer k for the operator tok, / or ^, which divides:
        a zero divisor, which Fractions refuse, is a syntax error at tok."""
        try:
            return self.actions.power(x, k)
        except symbolic.CoercionFailed:
            raise ModelSyntaxError("division by zero", tok.line, tok.column) from None

    def _unary(self):
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.text == "-":
            self._next()
            return self.actions.neg(self._unary())
        if tok is not None and tok.kind == "OP" and tok.text == "+":
            self._next()
            return self._unary()
        return self._power()

    def _power(self):
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok.kind == "OP" and tok.text == "^":
            self._next()
            return self._dividing(tok, base, self._exponent())
        return base

    def _exponent(self):
        tok = self._next()
        sign = 1
        if tok.kind == "OP" and tok.text == "-":
            sign = -1
            tok = self._next()
        if tok.kind != "NUMBER" or "." in tok.text:
            raise ModelSyntaxError(
                "exponent must be an integer literal", tok.line, tok.column
            )
        return sign * int(tok.text)

    def _atom(self):
        tok = self._next()
        if tok.kind == "NUMBER":
            return self.actions.number(_number_value(tok))
        if tok.kind == "IDENT":
            if tok.text not in self.symbols:
                raise ModelSyntaxError(
                    "unknown identifier %r" % tok.text, tok.line, tok.column
                )
            return self.actions.symbol(self.symbols[tok.text])
        if tok.kind == "OP" and tok.text == "(":
            e = self._expr()
            closing = self._next()
            if closing.kind != "OP" or closing.text != ")":
                raise ModelSyntaxError(
                    "expected ')'", closing.line, closing.column
                )
            return e
        raise ModelSyntaxError("unexpected %r" % tok.text, tok.line, tok.column)


def _number_value(tok):
    return symbolic.rational(tok.text)


def _check_name(tok):
    name = tok.text
    if not _IDENT_RE.match(name):
        raise ModelSyntaxError(
            "invalid identifier %r (letter followed by letters or digits)" % name,
            tok.line,
            tok.column,
        )
    if _RESERVED_RE.match(name):
        raise ModelSyntaxError(
            "name %r is reserved for flat-output components" % name,
            tok.line,
            tok.column,
        )
    if name in _KEYWORDS:
        raise ModelSyntaxError("%r is a keyword" % name, tok.line, tok.column)
    return name


def parse_model(text: str, source_name: str = "<string>") -> DiscreteTimeSystem:
    """Parse model text into a DiscreteTimeSystem.

    Raises ModelSyntaxError with line/column on lexical, grammatical, or
    unknown-identifier errors and on a division by zero, and
    ModelSemanticsError on structural ones (duplicate or missing state
    updates and the like).
    """
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    name = None
    state_names: list[str] = []
    input_names: list[str] = []
    equilibrium_tokens = None
    updates: dict[str, tuple] = {}
    statements: dict[str, tuple] = {}

    lines = text.split("\n")
    pending_next: list[tuple[int, list]] = []
    for line_no, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "IDENT":
            raise ModelSyntaxError("unexpected %r" % head.text, head.line, head.column)
        keyword = head.text
        rest = tokens[1:]
        if keyword == "system":
            if name is not None:
                raise ModelSyntaxError("duplicate system header", head.line, head.column)
            if len(rest) != 1 or rest[0].kind != "IDENT":
                raise ModelSyntaxError(
                    "expected: system <name>", head.line, head.column
                )
            name = rest[0].text
        elif keyword in ("states", "inputs"):
            if not rest or rest[0].text != ":":
                raise ModelSyntaxError(
                    "expected ':' after %r" % keyword, head.line, head.column
                )
            names = []
            for tok in rest[1:]:
                if tok.kind == "OP" and tok.text == ",":
                    continue
                if tok.kind != "IDENT":
                    raise ModelSyntaxError(
                        "expected identifier, got %r" % tok.text, tok.line, tok.column
                    )
                names.append(_check_name(tok))
            if not names:
                raise ModelSyntaxError(
                    "empty %s declaration" % keyword, head.line, head.column
                )
            if keyword == "states":
                state_names.extend(names)
            else:
                input_names.extend(names)
        elif keyword == "equilibrium":
            if equilibrium_tokens is not None:
                raise ModelSyntaxError("duplicate equilibrium line", head.line, head.column)
            if not rest or rest[0].text != ":":
                raise ModelSyntaxError(
                    "expected ':' after 'equilibrium'", head.line, head.column
                )
            equilibrium_tokens = (line_no, rest[1:])
        elif keyword == "next":
            pending_next.append((line_no, tokens))
        else:
            raise ModelSyntaxError(
                "unknown directive %r" % keyword, head.line, head.column
            )

    if name is None:
        raise ModelSemanticsError("%s: missing 'system' header" % source_name)
    if not state_names:
        raise ModelSemanticsError("%s: no states declared" % source_name)
    if not input_names:
        raise ModelSemanticsError("%s: no inputs declared" % source_name)
    seen = set()
    for nm in state_names + input_names:
        if nm in seen:
            raise ModelSemanticsError("%s: duplicate variable %r" % (source_name, nm))
        seen.add(nm)

    symbols = {nm: symbolic.symbol(nm) for nm in state_names + input_names}
    K = symbolic.function_field(tuple(symbols.values()))
    fractions = symbolic.Fractions(K)

    equilibrium = {symbols[nm]: symbolic.rational(0) for nm in state_names + input_names}
    line_no, toks = equilibrium_tokens or (None, [])
    if [tok.text for tok in toks] == ["all", "zero"]:
        toks = []
    assigned = set()
    i = 0
    while i < len(toks):
        tok = toks[i]
        if tok.text == ",":
            i += 1
            continue
        if tok.kind != "IDENT" or tok.text not in symbols:
            raise ModelSyntaxError(
                "expected declared variable, got %r" % tok.text, tok.line, tok.column)
        if tok.text in assigned:
            raise ModelSyntaxError(
                "duplicate equilibrium value for %r" % tok.text, tok.line, tok.column)
        assigned.add(tok.text)
        if i + 1 >= len(toks) or toks[i + 1].text != "=":
            raise ModelSyntaxError(
                "expected '=' in equilibrium assignment", tok.line, tok.column)
        j = i + 2
        while j < len(toks) and toks[j].text != ",":
            j += 1
        # the value follows the '=', so a missing one ends just past it
        value = _ExprParser(toks[i + 1:j], {}, line_no, fractions, start=1).parse()
        equilibrium[symbols[tok.text]] = symbolic.element_values(
            K, [[fractions.element(value)]], {})[0][0]
        i = j

    for line_no, tokens in pending_next:
        if (
            len(tokens) < 4
            or tokens[1].kind != "IDENT"
            or tokens[2].text != "="
        ):
            bad = tokens[min(1, len(tokens) - 1)]
            raise ModelSyntaxError("expected: next <state> = <expr>", bad.line, bad.column)
        target = tokens[1].text
        if target not in state_names:
            raise ModelSyntaxError(
                "%r is not a declared state" % target, tokens[1].line, tokens[1].column
            )
        if target in updates:
            raise ModelSemanticsError(
                "%s: duplicate update for state %r" % (source_name, target)
            )
        statements[target] = (tokens[3:], line_no)
        updates[target] = _ExprParser(tokens[3:], symbols, line_no, fractions).parse()

    missing = [nm for nm in state_names if nm not in updates]
    if missing:
        raise ModelSemanticsError(
            "%s: missing update for state(s) %s" % (source_name, ", ".join(missing))
        )

    # the expressions are parsed again from the tokens when first read
    return DiscreteTimeSystem(
        name=name,
        states=tuple(symbols[nm] for nm in state_names),
        inputs=tuple(symbols[nm] for nm in input_names),
        update=functools.partial(_parse_expressions,
                                 [statements[nm] for nm in state_names], symbols),
        equilibrium={v: equilibrium[v] for v in
                     [symbols[nm] for nm in state_names + input_names]},
        elements=(K, tuple(fractions.element(updates[nm]) for nm in state_names)),
        source_digest=digest,
    )


def _parse_expressions(statements, symbols) -> tuple:
    """The expressions of the (tokens, line number) statements."""
    return tuple(_ExprParser(tokens, symbols, line_no).parse()
                 for tokens, line_no in statements)


def load_model(path) -> DiscreteTimeSystem:
    """Read and parse a model file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text, source_name=str(path))


def parse_elements(texts, system) -> list:
    """Parse expressions in the model grammar over a system's variables,
    as elements of the field QQ(states, inputs) of
    system.update_elements, without building an expression.

    Accepts the same sublanguage as the right-hand sides of ``next``
    statements (rational arithmetic, ``^`` powers with integer literal
    exponents) and resolves identifiers against the states and inputs of
    ``system``.  Raises ModelSyntaxError on anything else, and on a
    division by zero at its operator, as in parse_model."""
    fractions = symbolic.Fractions(symbolic.function_field(system.variables))
    return [fractions.element(_ExprParser(*_expression_tokens(text, system), fractions).parse())
            for text in texts]


def _expression_tokens(text, system) -> tuple:
    """The tokens, the identifiers and the line number of one expression
    over the variables of system."""
    tokens = _tokenize_line(text, 1)
    if not tokens:
        raise ModelSyntaxError("empty expression", 1, 1)
    return tokens, {str(v): v for v in system.variables}, 1
