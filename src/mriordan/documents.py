"""Input formats (ElementDoc and LatticeSpec JSON, sequence files) and their one reader.

ElementDoc: { "m": int, "order": int, "let": [{"name","expr"}...],
              "g": str, "f": [str, ...] }
m and order are integers >= 1 (order defaults to DEFAULT_ORDER), and f
holds exactly m expressions.
Expressions use the grammar from :mod:`mriordan.expressions`; let-bindings
evaluate in order and are visible to later bindings and to g/f.

LatticeSpec: { "m": int, "rules": [[[dn, dk], ...] per residue],
               "boundary": "standard" }

A key not shown above is an error, and so is a let name that the
expression tokenizer does not read as one identifier.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from fractions import Fraction

from .errors import MRiordanError
from .expressions import RESERVED, evaluate_text, is_identifier
from .group import MRiordanElement, new_element
from .lattice import LatticeSpec
from .series import Series, exact_coeff

DEFAULT_ORDER = 60


class DocumentError(MRiordanError):
    """Malformed or inconsistent document contents."""


def _positive_int_field(doc: Mapping, key: str) -> int:
    """doc[key] as a JSON integer >= 1; a bool, float or string is an error,
    never coerced."""
    value = doc[key]
    if type(value) is not int or value < 1:
        raise DocumentError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _check_keys(doc: Mapping, known: set, what: str) -> None:
    """A key outside `known` (a misspelt "lets", say) is an error, never dropped."""
    unknown = sorted(set(doc) - known)
    if unknown:
        raise DocumentError(f"unknown key(s) in {what}: {', '.join(map(repr, unknown))}")


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{what} must be a string, got {value!r}")
    return value


def element_from_doc(doc: Mapping, order: int | None = None) -> MRiordanElement:
    """Build a validated element from a parsed ElementDoc mapping.

    Every field must have its documented JSON type; nothing is coerced.
    """
    if not isinstance(doc, Mapping):
        raise DocumentError("an element document must be a JSON object")
    _check_keys(doc, {"m", "order", "let", "g", "f"}, "an element document")
    try:
        m = _positive_int_field(doc, "m")
        doc_order = _positive_int_field(doc, "order") if "order" in doc else DEFAULT_ORDER
        g_expr = _text(doc["g"], "'g'")
        f_exprs = doc["f"]
    except KeyError as exc:
        raise DocumentError(f"bad element document: missing {exc}")
    if not (isinstance(f_exprs, list) and len(f_exprs) == m
            and all(isinstance(expr, str) for expr in f_exprs)):
        raise DocumentError(f"'f' must be a list of {m} expression strings, got {f_exprs!r}")
    lets = doc.get("let", [])
    if not isinstance(lets, list):
        raise DocumentError(f"'let' must be a list, got {lets!r}")
    if order is None:
        order = doc_order
    bindings: dict = {}
    for item in lets:
        try:
            name, expr = item["name"], item["expr"]
        except (KeyError, TypeError):
            raise DocumentError(f"let entry {item!r} needs a 'name' and an 'expr'")
        _check_keys(item, {"name", "expr"}, "a let entry")
        name = _text(name, "a let 'name'")
        if not is_identifier(name):
            raise DocumentError(f"binding name {name!r} is not an identifier")
        if name in RESERVED:
            raise DocumentError(f"binding name {name!r} is reserved")
        bindings[name] = evaluate_text(_text(expr, "a let 'expr'"), order, bindings)
    g = evaluate_text(g_expr, order, bindings)
    f = [evaluate_text(expr, order, bindings) for expr in f_exprs]
    return new_element(m, g, f, order)


def read_input(path) -> str:
    """The text of an input file, or of stdin for "-": UTF-8 with a leading
    byte-order mark dropped; bytes that do not decode are a ``DocumentError``."""
    try:
        if path == "-":  # a text stream with no byte buffer (io.StringIO) is read as it is
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}")
    return text.removeprefix("\ufeff")


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DocumentError(f"malformed JSON: {exc}")


def load_element(path, order: int | None = None) -> MRiordanElement:
    return element_from_doc(_parse_json(read_input(path)), order)


def series_to_expr(s: Series) -> str:
    """Render a truncated series as a polynomial expression string."""
    out = ""
    for i, c in enumerate(s.coeffs):
        if not c:
            continue
        term = str(abs(c))
        if i:
            power = "x" if i == 1 else f"x^{i}"
            term = power if term == "1" else f"{term}*{power}"
        out += ("-" if c < 0 else "+") + term
    return out.removeprefix("+") or "0"


def element_to_doc(e: MRiordanElement) -> dict:
    """Serialize a computed element as an ElementDoc (polynomial form)."""
    return {
        "m": e.m,
        "order": e.order,
        "let": [],
        "g": series_to_expr(e.g),
        "f": [series_to_expr(fi) for fi in e.f],
    }


def element_to_json(e: MRiordanElement) -> str:
    return json.dumps(element_to_doc(e), indent=2)


def lattice_from_doc(doc: Mapping) -> LatticeSpec:
    if not isinstance(doc, Mapping):
        raise DocumentError("a lattice document must be a JSON object")
    _check_keys(doc, {"m", "rules", "boundary"}, "a lattice document")
    try:
        m = _positive_int_field(doc, "m")
        rules = doc["rules"]
    except KeyError as exc:
        raise DocumentError(f"bad lattice document: missing {exc}")
    boundary = doc.get("boundary", "standard")
    if boundary != "standard":
        raise DocumentError(f"unsupported boundary {boundary!r}")
    try:
        return LatticeSpec.from_lists(m, rules)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc))


def load_lattice(path) -> LatticeSpec:
    return lattice_from_doc(_parse_json(read_input(path)))


def parse_sequence(text: str) -> list:
    """Integers/rationals, comma- or whitespace-separated."""
    items = text.replace(",", " ").split()
    out = []
    for item in items:
        try:
            out.append(exact_coeff(Fraction(item)))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad sequence term {item!r}: {exc}")
    return out
