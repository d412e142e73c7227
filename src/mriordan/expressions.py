"""A small expression language for writing generating functions as text.

Grammar (left-associative, standard precedence):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := int | 'x' | ident | ident '(' expr ')' | '(' expr ')'

Reserved identifiers: ``x``, ``sqrt``, ``catalan``.  Any other identifier
must be supplied as a binding at evaluation time.  Parentheses, unary
minus and calls nest at most MAX_NESTING levels deep.

A sum is evaluated as one coefficient list: each operand that is a
monomial c*x^k (a product of integers, ``x`` and ``x^k``, divided by
nonzero constants) is added at x^k without building a series, so a
polynomial of many terms, as the CLI prints them, costs one series.  Any
other operand is evaluated as a series and added coefficient by
coefficient; values, coefficient types and errors are those of pairwise
evaluation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    EvaluationError,
    ExprSyntaxError,
    MRiordanError,
    UnknownIdentifier,
)
from .series import Series, catalan_series, compose, sqrt_unit

RESERVED = {"x", "sqrt", "catalan"}

# Each level costs the recursive-descent parser a few stack frames, so the
# bound keeps parsing and evaluation well inside Python's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str  # "x" or a binding name
    pos: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    pos: int = 0


@dataclass(frozen=True)
class Call:
    func: str  # 'sqrt' or 'catalan'
    arg: "Node"
    pos: int = 0


Node = Union[Num, Var, Bin, Neg, Pow, Call]


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # factors currently being parsed, one per nesting level

    def peek(self):
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.pos = i
        if i >= len(t):
            return ("eof", "", i)
        ch = t[i]
        if ch.isdecimal():  # the digits int() accepts; '²' is a digit but not decimal
            j = i
            while j < len(t) and t[j].isdecimal():
                j += 1
            return ("int", t[i:j], i)
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            return ("ident", t[i:j], i)
        if ch in "+-*/^()":
            return (ch, ch, i)
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)

    def next(self):
        kind, text, pos = self.peek()
        self.pos = pos + len(text)
        return kind, text, pos


def is_identifier(text: str) -> bool:
    """True if the tokenizer reads all of `text` as one identifier."""
    try:
        return _Tokenizer(text).peek() == ("ident", text, 0)
    except ExprSyntaxError:
        return False


def parse(text: str) -> Node:
    tok = _Tokenizer(text)
    node = _parse_expr(tok)
    kind, _, pos = tok.peek()
    if kind != "eof":
        raise ExprSyntaxError("trailing input", pos)
    return node


def _parse_expr(tok, ops=("+", "-")) -> Node:
    """A left-associative chain of operands joined by `ops`: an expr (terms
    joined by '+' and '-') or, with ops ('*', '/'), a term (factors)."""
    node = None
    while True:
        right = _parse_factor(tok) if "*" in ops else _parse_expr(tok, ("*", "/"))
        node = right if node is None else Bin(kind, node, right, pos)
        kind, _, pos = tok.peek()
        if kind not in ops:
            return node
        tok.next()


def _parse_factor(tok) -> Node:
    kind, _, pos = tok.peek()
    tok.depth += 1
    if tok.depth > MAX_NESTING:
        raise ExprSyntaxError(f"expression nested more than {MAX_NESTING} levels deep", pos)
    if kind == "-":
        tok.next()
        node = Neg(_parse_factor(tok), pos)
    else:
        node = _parse_atom(tok)
        kind, _, pos = tok.peek()
        if kind == "^":
            tok.next()
            node = Pow(node, _parse_exponent(tok), pos)
    tok.depth -= 1
    return node


def _parse_exponent(tok) -> int:
    sign = 1
    kind, text, pos = tok.next()
    if kind == "-":
        sign = -1
        kind, text, pos = tok.next()
    if kind != "int":
        raise ExprSyntaxError("exponent must be an integer", pos)
    return sign * _int_literal(text, pos)


def _int_literal(text: str, pos: int) -> int:
    """int(text) for a decimal token; a literal longer than CPython's
    int-string conversion limit is a syntax error, not a ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ExprSyntaxError(f"integer literal of {len(text)} digits is too long", pos)


def _parse_atom(tok) -> Node:
    kind, text, pos = tok.next()
    if kind == "int":
        return Num(_int_literal(text, pos), pos)
    if kind == "(":
        node = _parse_expr(tok)
        kind, _, p2 = tok.next()
        if kind != ")":
            raise ExprSyntaxError("expected ')'", p2)
        return node
    if kind == "ident":
        nkind, _, _ = tok.peek()
        if nkind == "(":
            if text not in ("sqrt", "catalan"):
                raise UnknownIdentifier(text, pos)
            tok.next()
            arg = _parse_expr(tok)
            kind, _, p2 = tok.next()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", p2)
            return Call(text, arg, pos)
        return Var(text, pos)
    raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def to_text(node: Node) -> str:
    """Canonical printer; parse(to_text(ast)) reproduces the ast
    (modulo source positions)."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_wrap(node.arg)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, (Bin, Neg, Pow))}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, Bin):
        # a long sum or product parses to a left-leaning chain; print it with
        # a loop, as evaluate walks it, so that its length costs no recursion
        # depth.  The loop stops at a left operand that is not a Bin, or at a
        # sum or difference under '*' or '/': the one left operand that needs
        # parentheses.
        chain = [node]
        while isinstance(node.left, Bin) and not (node.op in "*/" and node.left.op in "+-"):
            node = node.left
            chain.append(node)
        return _wrap(node.left, Bin) + "".join(
            link.op + _wrap(link.right) for link in reversed(chain)
        )
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node: Node, kinds=(Bin, Neg)) -> str:
    """to_text(node), parenthesised if the node is one of `kinds`."""
    text = to_text(node)
    return f"({text})" if isinstance(node, kinds) else text


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def evaluate(node: Node, bindings: Mapping[str, Series], order: int) -> Series:
    """Evaluate to an exact Series of the given order."""
    if isinstance(node, Num):
        return Series.constant(node.value, order)
    if isinstance(node, Var):
        if node.name == "x":
            if order < 1:
                raise EvaluationError("x needs order >= 1", node.pos)
            return Series.x(order)
        if node.name in bindings:
            return bindings[node.name].truncate(order)
        raise UnknownIdentifier(node.name, node.pos)
    if isinstance(node, Neg):
        return -evaluate(node.arg, bindings, order)
    if isinstance(node, Bin) and node.op in "+-":
        return _sum(node, bindings, order)
    if isinstance(node, Bin):
        # a long product parses to a left-leaning chain; walk it with a loop
        # so that its length costs no recursion depth.  A sum on the left of
        # '*' or '/' was parenthesised and is evaluated by _sum.
        chain = []
        while isinstance(node, Bin) and node.op in "*/":
            chain.append(node)
            node = node.left
        acc = evaluate(node, bindings, order)
        for link in reversed(chain):
            rhs = evaluate(link.right, bindings, order)
            try:
                acc = _BINARY[link.op](acc, rhs)
            except MRiordanError as exc:
                raise EvaluationError(str(exc), link.pos, cause=exc)
        return acc
    if isinstance(node, Pow):
        base = evaluate(node.base, bindings, order)
        if node.exponent < 0 and not base[0]:
            raise EvaluationError(
                "negative exponent needs a unit constant term", node.pos
            )
        return base**node.exponent
    if isinstance(node, Call):
        arg = evaluate(node.arg, bindings, order)
        try:
            if node.func == "catalan":
                return compose(catalan_series(order), arg)
            return sqrt_unit(arg)
        except MRiordanError as exc:
            raise EvaluationError(str(exc), node.pos, cause=exc)
    raise TypeError(f"not an expression node: {node!r}")


def _sum(node: Bin, bindings: Mapping[str, Series], order: int) -> Series:
    """A chain of '+' and '-' as one list of coefficients: a monomial c*x^k
    is added at x^k, any other operand is evaluated, left to right, and
    added coefficient by coefficient.  The sum has the least order of its
    operands, as pairwise sums do."""
    chain = []
    while isinstance(node, Bin) and node.op in "+-":
        chain.append(node)
        node = node.left
    coeffs = [0] * (order + 1)
    top = order
    for op, operand in [("+", node)] + [(link.op, link.right) for link in reversed(chain)]:
        term = _monomial(operand, order)
        if term:
            c, k = term
            coeffs[k] = _BINARY[op](coeffs[k], c)
            continue
        value = evaluate(operand, bindings, order)
        top = min(top, value.order)
        coeffs[: top + 1] = map(_BINARY[op], coeffs[: top + 1], value.coeffs)
    return Series(coeffs[: top + 1])


def _monomial(node: Node, order: int):
    """``(c, k)`` when node is c*x^k with 0 <= k <= order, built from
    integers, ``x``, ``x^j`` (j >= 0), unary minus, '*', and '/' by a nonzero
    constant, so that evaluating it could not raise; None otherwise."""
    if isinstance(node, Num):
        return (node.value, 0) if order >= 0 else None
    if isinstance(node, Var):
        return (1, 1) if node.name == "x" and order >= 1 else None
    if isinstance(node, Pow):
        base, k = node.base, node.exponent
        if isinstance(base, Var) and base.name == "x" and order >= 1 and 0 <= k <= order:
            return 1, k
        return None
    if isinstance(node, Neg):
        term = _monomial(node.arg, order)
        return term and (-term[0], term[1])
    if not isinstance(node, Bin) or node.op in "+-":
        return None
    chain = []  # a long product costs no recursion depth
    while isinstance(node, Bin) and node.op in "*/":
        chain.append(node)
        node = node.left
    term = _monomial(node, order)
    for link in reversed(chain):
        right = term and _monomial(link.right, order)
        if not right:
            return None
        (c, k), (rc, rk) = term, right
        if link.op == "*" and k + rk <= order:
            term = c * rc, k + rk
        elif link.op == "/" and not rk and rc:
            term = Fraction(c) / rc, k
        else:
            return None
    return term


def evaluate_text(text: str, order: int, bindings: Mapping[str, Series] | None = None) -> Series:
    return evaluate(parse(text), bindings or {}, order)
