"""Command-line front end.

Every verb is a thin adapter over the library: load documents, call one
operation, print.  Output is deterministic byte-for-byte.  Exit codes:
0 success, 1 domain/verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import golden, group, sequences
from .documents import (
    DocumentError,
    element_from_doc,
    element_from_json,
    element_to_json,
    load_element,
    load_lattice,
    parse_sequence,
)
from .errors import MRiordanError, OrderTooSmall
from .expressions import evaluate_text
from .group import CoeffMatrix
from .lattice import count_table, left_factors


def format_matrix(mat: CoeffMatrix) -> str:
    cells = [[str(v) for v in row] for row in mat.entries]
    widths = [
        max(len(cells[n][k]) for n in range(mat.rows)) for k in range(mat.rows)
    ]
    lines = [
        " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join(lines)


def format_sequence(seq, fmt: str) -> str:
    parts = [str(v) for v in seq]
    if fmt == "csv":
        return ", ".join(parts)
    return "\n".join(parts)


def _positive_int(text: str) -> int:
    """argparse type for counts and moduli: out-of-range values are usage
    errors rather than being clamped or coerced."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _read_element(args):
    order = getattr(args, "order", None)
    if getattr(args, "g", None) is not None:
        return element_from_doc({"m": args.m, "g": args.g, "f": args.f or []}, order)
    if args.path is None:
        raise DocumentError("give an element file, or --g/--f for an ad-hoc element")
    if args.path == "-":
        return element_from_json(_read_text("-"), order)
    return load_element(args.path, order)


def _read_text(path) -> str:
    """A file, or stdin for "-", as UTF-8 text; bytes that do not decode are
    a ``DocumentError``."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}")


def _add_element_args(p):
    p.add_argument("path", nargs="?", help="ElementDoc JSON path, or - for stdin")
    p.add_argument("--order", type=_positive_int, default=None, help="override truncation order")
    p.add_argument("--m", type=_positive_int, default=1, help="modulus for ad-hoc elements")
    p.add_argument("--g", default=None, help="ad-hoc g expression")
    p.add_argument("--f", action="append", default=None, help="ad-hoc f expression (repeat m times)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mriordan",
        description="Exact m-Riordan group computations and lattice path counting.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("matrix", help="expand an element to a coefficient matrix")
    _add_element_args(p)
    p.add_argument("--rows", type=_positive_int, default=10)

    p = sub.add_parser("product", help="group product of two elements (prints ElementDoc)")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--order", type=_positive_int, default=None)

    p = sub.add_parser("invert", help="group inverse of an element (prints ElementDoc)")
    _add_element_args(p)

    p = sub.add_parser("apply", help="fundamental-theorem action on a series")
    _add_element_args(p)
    p.add_argument("--gf", required=True, help="expression for the series acted on")
    p.add_argument("--terms", type=_positive_int, default=20)
    p.add_argument("--format", choices=("plain", "csv"), default="plain")

    for verb, description in (
        ("rowsums", "row sums of an element's matrix"),
        ("diagsums", "diagonal sums of an element's matrix"),
    ):
        p = sub.add_parser(verb, help=description)
        _add_element_args(p)
        p.add_argument("--terms", type=_positive_int, default=20)
        p.add_argument("--format", choices=("plain", "csv"), default="plain")

    p = sub.add_parser("hankel", help="Hankel transform of a sequence file")
    p.add_argument("path", help="sequence file (one term per line or comma-separated), - for stdin")
    p.add_argument("--format", choices=("plain", "csv"), default="plain")

    p = sub.add_parser("interleave", help="split a sequence into residue-class slots")
    p.add_argument("path", help="sequence file, - for stdin")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--format", choices=("plain", "csv"), default="csv")

    p = sub.add_parser("lattice", help="lattice path counting table / left factors")
    p.add_argument("path", help="LatticeSpec JSON path")
    p.add_argument("--rows", type=_positive_int, default=10)
    p.add_argument("--left-factors", type=_positive_int, default=None, metavar="TERMS",
                   help="print this many left-factor counts instead of the table")

    sub.add_parser("verify-paper", help="run every built-in golden fixture")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (MRiordanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print(fmt, *args) -> None:
    """print(fmt(*args)) with CPython's int-string digit limit (where it has
    one) lifted, so that every exact value prints in full.  Input is read
    before, under the limit, so an over-long literal is still refused."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(fmt(*args))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _dispatch(args) -> int:
    verb = args.verb
    if verb == "matrix":
        e = _read_element(args)
        _print(format_matrix, group.to_matrix(e, args.rows))
    elif verb == "product":
        a = load_element(args.path_a, args.order)
        b = load_element(args.path_b, args.order)
        _print(element_to_json, group.product(a, b))
    elif verb == "invert":
        _print(element_to_json, group.inverse(_read_element(args)))
    elif verb == "apply":
        e = _read_element(args)
        if args.terms > e.order + 1:
            raise OrderTooSmall(f"{args.terms} terms need order >= {args.terms - 1}")
        series = group.apply_ftra(e, evaluate_text(args.gf, e.order))
        _print(format_sequence, series.coeffs[: args.terms], args.format)
    elif verb == "rowsums":
        e = _read_element(args)
        _print(format_sequence, sequences.row_sums(e, args.terms), args.format)
    elif verb == "diagsums":
        e = _read_element(args)
        _print(format_sequence, sequences.diagonal_sums(e, args.terms), args.format)
    elif verb == "hankel":
        seq = parse_sequence(_read_text(args.path))
        _print(format_sequence, sequences.hankel_transform(seq), args.format)
    elif verb == "interleave":
        seq = parse_sequence(_read_text(args.path))
        for slot in sequences.interleave_split(seq, args.m):
            _print(format_sequence, slot, args.format)
    elif verb == "lattice":
        spec = load_lattice(args.path)
        if args.left_factors is not None:
            _print(format_sequence, left_factors(spec, args.left_factors), "plain")
        else:
            _print(format_matrix, count_table(spec, args.rows))
    elif verb == "verify-paper":
        results = golden.run_all()
        failures = 0
        for r in results:
            status = "pass" if r.ok else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            print(f"{status}  {r.name}{suffix}")
            failures += 0 if r.ok else 1
        print(f"{len(results) - failures}/{len(results)} fixtures passed")
        return 0 if failures == 0 else 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
