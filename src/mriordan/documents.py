"""On-disk document formats: ElementDoc and LatticeSpec JSON files.

ElementDoc: { "m": int, "order": int, "let": [{"name","expr"}...],
              "g": str, "f": [str, ...] }
Expressions use the grammar from :mod:`mriordan.expressions`; let-bindings
evaluate in order and are visible to later bindings and to g/f.

LatticeSpec: { "m": int, "rules": [[[dn, dk], ...] per residue],
               "boundary": "standard" }
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .errors import MRiordanError
from .expressions import RESERVED, evaluate_text
from .group import MRiordanElement, new_element
from .lattice import LatticeSpec
from .series import Series


class DocumentError(MRiordanError):
    """Malformed or inconsistent document contents."""


def element_from_doc(doc: Mapping, order: int | None = None) -> MRiordanElement:
    """Build a validated element from a parsed ElementDoc mapping."""
    try:
        m = int(doc["m"])
        doc_order = int(doc.get("order", 60))
        g_expr = doc["g"]
        f_exprs = list(doc["f"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad element document: {exc}")
    if order is None:
        order = doc_order
    bindings: dict = {}
    for item in doc.get("let", []):
        try:
            name, expr = item["name"], item["expr"]
        except (KeyError, TypeError):
            raise DocumentError(f"let entry {item!r} needs a 'name' and an 'expr'")
        if name in RESERVED:
            raise DocumentError(f"binding name {name!r} is reserved")
        bindings[name] = evaluate_text(expr, order, bindings)
    g = evaluate_text(g_expr, order, bindings)
    f = [evaluate_text(expr, order, bindings) for expr in f_exprs]
    return new_element(m, g, f, order)


def _parse_json(text: str | bytes):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DocumentError(f"malformed JSON: {exc}")


def load_element(path, order: int | None = None) -> MRiordanElement:
    with open(path, "rb") as fh:
        return element_from_json(fh.read(), order)


def element_from_json(text: str | bytes, order: int | None = None) -> MRiordanElement:
    return element_from_doc(_parse_json(text), order)


def series_to_expr(s: Series) -> str:
    """Render a truncated series as a polynomial expression string."""
    parts = []
    for i, c in enumerate(s.coeffs):
        if not c:
            continue
        mag = abs(c)
        coeff = str(mag)
        if i == 0:
            text = coeff
        elif i == 1:
            text = "x" if mag == 1 else f"{coeff}*x"
        else:
            text = f"x^{i}" if mag == 1 else f"{coeff}*x^{i}"
        parts.append(("-" if c < 0 else "+", text))
    if not parts:
        return "0"
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += sign + text
    return out


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
    try:
        m = int(doc["m"])
        rules = doc["rules"]
        boundary = doc.get("boundary", "standard")
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad lattice document: {exc}")
    if boundary != "standard":
        raise DocumentError(f"unsupported boundary {boundary!r}")
    try:
        return LatticeSpec.from_lists(m, rules)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc))


def load_lattice(path) -> LatticeSpec:
    with open(path, "rb") as fh:
        return lattice_from_doc(_parse_json(fh.read()))


def parse_sequence(text: str) -> list:
    """Integers/rationals, comma- or whitespace-separated."""
    items = text.replace(",", " ").split()
    out = []
    for item in items:
        try:
            out.append(Fraction(item))
        except ValueError as exc:
            raise DocumentError(f"bad sequence term {item!r}: {exc}")
    return out
