"""A small expression language for writing generating functions as text.

Grammar (left-associative, standard precedence):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' int)?
    atom   := int | 'x' | ident | ident '(' expr ')' | '(' expr ')'

Reserved identifiers: ``x``, ``sqrt``, ``catalan``.  Any other identifier
must be supplied as a binding at evaluation time.  Parentheses, unary
minus and calls nest at most MAX_NESTING levels deep.

Evaluation is one walk of the tree.  The value of a node is a monomial
c*x^k (0 <= k <= order), kept as the pair (c, k), or a Series: integers
and ``x`` are monomials, and so are unary minus, ``^`` by n >= 0, and '*'
or '/' (by a nonzero constant) of monomials whose result is one.  Every
other step applies the Series operation, so a monomial is never a value
whose pairwise evaluation would raise.  A sum is one coefficient list,
each monomial added at x^k, so a polynomial of many terms, as the CLI
prints them, costs one series.  Values, coefficient types and errors are
those of pairwise evaluation.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    EvaluationError,
    ExprSyntaxError,
    MRiordanError,
    UnknownIdentifier,
)
from .records import Frozen, _set
from .series import Series, _at_least, catalan_series, compose, sqrt_unit

RESERVED = {"x", "sqrt", "catalan"}

# Each level costs the recursive-descent parser a few stack frames, so the
# bound keeps parsing and evaluation well inside Python's recursion limit.
MAX_NESTING = 100


class Num(Frozen):
    __slots__ = _fields = ("value", "pos")

    def __init__(self, value: int, pos: int = 0):
        _set(self, "value", value)
        _set(self, "pos", pos)


class Var(Frozen):
    __slots__ = _fields = ("name", "pos")  # name: "x" or a binding name

    def __init__(self, name: str, pos: int = 0):
        _set(self, "name", name)
        _set(self, "pos", pos)


class Bin(Frozen):
    __slots__ = _fields = ("op", "left", "right", "pos")  # op: '+', '-', '*', '/'

    def __init__(self, op: str, left: Node, right: Node, pos: int = 0):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "pos", pos)


class Neg(Frozen):
    __slots__ = _fields = ("arg", "pos")

    def __init__(self, arg: Node, pos: int = 0):
        _set(self, "arg", arg)
        _set(self, "pos", pos)


class Pow(Frozen):
    __slots__ = _fields = ("base", "exponent", "pos")

    def __init__(self, base: Node, exponent: int, pos: int = 0):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "pos", pos)


class Call(Frozen):
    __slots__ = _fields = ("func", "arg", "pos")  # func: 'sqrt' or 'catalan'

    def __init__(self, func: str, arg: Node, pos: int = 0):
        _set(self, "func", func)
        _set(self, "arg", arg)
        _set(self, "pos", pos)


Node = Union[Num, Var, Bin, Neg, Pow, Call]


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # factors currently being parsed, one per nesting level
        self.ahead = ("eof", "", -1)  # the last token scanned; reused while it starts at pos

    def peek(self):
        if self.ahead[2] == self.pos:
            return self.ahead
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.pos = i
        ch = t[i : i + 1]  # "" at the end
        if not ch:
            tok = ("eof", "", i)
        elif ch.isdecimal():  # the digits int() accepts; '²' is a digit but not decimal
            j = i
            while j < len(t) and t[j].isdecimal():
                j += 1
            tok = ("int", t[i:j], i)
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            tok = ("ident", t[i:j], i)
        elif ch in "+-*/^()":
            tok = (ch, ch, i)
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.ahead = tok
        return tok

    def next(self):
        _, text, pos = tok = self.peek()
        self.pos = pos + len(text)
        return tok


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
    """Evaluate to an exact Series of the given order (an ``int``, >= 0)."""
    return _as_series(_value(node, bindings, _at_least(order, 0, "order")), order)


def _value(node: Node, bindings: Mapping[str, Series], order: int):
    """The value of node: a monomial ``(c, k)``, c*x^k with 0 <= k <= order,
    where evaluating node pairwise could not raise, else a Series."""
    kind = type(node)
    if kind is Bin:
        # a long sum or product parses to a left-leaning chain; walk it with
        # a loop so that its length costs no recursion depth.  A sum on the
        # left of '*' or '/' was parenthesised and is one value of the chain.
        ops = "+-" if node.op in "+-" else "*/"
        chain = []
        while isinstance(node, Bin) and node.op in ops:
            chain.append(node)
            node = node.left
        if ops == "+-":
            # one list of coefficients: a monomial is added at x^k, a series
            # coefficient by coefficient; the sum has the least order of its
            # operands, as pairwise sums do
            coeffs, top = [0] * (order + 1), order
            for op, operand in [("+", node)] + [(link.op, link.right) for link in reversed(chain)]:
                value = _value(operand, bindings, order)
                if type(value) is tuple:
                    c, k = value
                    coeffs[k] = _BINARY[op](coeffs[k], c)
                else:
                    top = min(top, value.order)
                    coeffs[: top + 1] = map(_BINARY[op], coeffs[: top + 1], value.coeffs)
            return Series(coeffs[: top + 1])
        acc = _value(node, bindings, order)
        for link in reversed(chain):
            rhs = _value(link.right, bindings, order)
            if type(acc) is tuple and type(rhs) is tuple:
                (c, k), (rc, rk) = acc, rhs
                if link.op == "*" and k + rk <= order:
                    acc = c * rc, k + rk
                    continue
                if link.op == "/" and not rk and rc:
                    acc = Fraction(c) / rc, k
                    continue
            try:
                acc = _BINARY[link.op](_as_series(acc, order), _as_series(rhs, order))
            except MRiordanError as exc:
                raise EvaluationError(str(exc), link.pos, cause=exc)
        return acc
    if kind is Num:
        return node.value, 0
    if kind is Pow:
        base, n = _value(node.base, bindings, order), node.exponent
        if type(base) is tuple and n >= 0:
            c, k = base
            return (c**n, k * n) if k * n <= order else Series.zero(order)
        base = _as_series(base, order)
        if n < 0 and not base[0]:
            raise EvaluationError(
                "negative exponent needs a unit constant term", node.pos
            )
        return base**n
    if kind is Var:
        if node.name == "x":
            if order < 1:
                raise EvaluationError("x needs order >= 1", node.pos)
            return 1, 1
        if node.name in bindings:
            return bindings[node.name].truncate(order)
        raise UnknownIdentifier(node.name, node.pos)
    if kind is Neg:
        value = _value(node.arg, bindings, order)
        return (-value[0], value[1]) if type(value) is tuple else -value
    if kind is Call:
        arg = _as_series(_value(node.arg, bindings, order), order)
        try:
            if node.func == "catalan":
                return compose(catalan_series(order), arg)
            return sqrt_unit(arg)
        except MRiordanError as exc:
            raise EvaluationError(str(exc), node.pos, cause=exc)
    raise TypeError(f"not an expression node: {node!r}")


def _as_series(value, order: int) -> Series:
    """A value of _value as a Series: a monomial (c, k) is c at x^k."""
    if type(value) is not tuple:
        return value
    coeffs = [0] * (order + 1)
    coeffs[value[1]] = value[0]
    return Series(coeffs)


def evaluate_text(text: str, order: int, bindings: Mapping[str, Series] | None = None) -> Series:
    return evaluate(parse(text), bindings or {}, order)
