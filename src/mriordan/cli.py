"""Command-line front end.

Every verb is a thin adapter over the library: load documents, call one
operation, print.  Output is deterministic byte-for-byte.  Exit codes:
0 success, 1 domain/verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import golden, group, sequences
from .documents import (
    element_from_doc,
    element_to_json,
    load_element,
    load_lattice,
    parse_sequence,
    read_input,
)
from .errors import MRiordanError, OrderTooSmall
from .expressions import evaluate_text
from .group import CoeffMatrix
from .lattice import count_table, left_factors


def format_matrix(mat: CoeffMatrix) -> str:
    cells = [[str(v) for v in row] for row in mat.entries]
    widths = [max(map(len, col)) for col in zip(*cells)]
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
    """The element a verb reads: a document at ``path``, or an ad-hoc one
    from ``--g`` with its ``--f`` and ``--m``.  Both sources, neither, or
    ``--f``/``--m`` without ``--g`` are usage errors, never a dropped flag."""
    adhoc = (args.g, args.f, args.m) != (None, None, None)
    if args.path is not None:
        if adhoc:
            args.usage_error("give an element file or --g/--f/--m, not both")
        return load_element(args.path, args.order)
    if args.g is None:
        args.usage_error("--f and --m need --g" if adhoc else
                         "give an element file, or --g/--f for an ad-hoc element")
    return element_from_doc({"m": args.m or 1, "g": args.g, "f": args.f or []}, args.order)


def _apply(args) -> None:
    e = _read_element(args)
    if args.terms > e.order + 1:
        raise OrderTooSmall(f"{args.terms} terms need order >= {args.terms - 1}")
    series = group.apply_ftra(e, evaluate_text(args.gf, e.order))
    _print(format_sequence, series[: args.terms], args.format)


def _product(args) -> None:
    if args.path_a == args.path_b == "-":
        args.usage_error("stdin (-) can be read only once; give a file for one operand")
    _print(element_to_json, group.product(
        load_element(args.path_a, args.order), load_element(args.path_b, args.order)))


def _interleave(args) -> None:
    seq = parse_sequence(read_input(args.path))
    for slot in sequences.interleave_split(seq, args.m):
        _print(format_sequence, slot, args.format)


def _lattice(args) -> None:
    if args.rows is not None and args.left_factors is not None:
        args.usage_error("give --rows or --left-factors, not both")
    spec = load_lattice(args.path)
    if args.left_factors is not None:
        _print(format_sequence, left_factors(spec, args.left_factors), "plain")
    else:
        _print(format_matrix, count_table(spec, args.rows or 10))


def _verify_paper(args) -> int:
    results = golden.run_all()
    failures = 0
    for r in results:
        status = "pass" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        print(f"{status}  {r.name}{suffix}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} fixtures passed")
    return 0 if failures == 0 else 1


def _add_element_args(p):
    p.add_argument("path", nargs="?", help="ElementDoc JSON path, or - for stdin")
    p.add_argument("--order", type=_positive_int, default=None, help="override truncation order")
    p.add_argument("--m", type=_positive_int, default=None, help="modulus for ad-hoc elements (default 1)")
    p.add_argument("--g", default=None, help="ad-hoc g expression")
    p.add_argument("--f", action="append", default=None, help="ad-hoc f expression (repeat m times)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: ``run`` is called
    many times in one process, and parsing leaves the parser unchanged.
    Each verb's handler is its ``run`` default, next to its arguments."""
    parser = argparse.ArgumentParser(
        prog="mriordan",
        description="Exact m-Riordan group computations and lattice path counting.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("matrix", help="expand an element to a coefficient matrix")
    _add_element_args(p)
    p.add_argument("--rows", type=_positive_int, default=10)
    p.set_defaults(run=lambda a: _print(format_matrix, group.to_matrix(_read_element(a), a.rows)))

    p = sub.add_parser("product", help="group product of two elements (prints ElementDoc)")
    p.add_argument("path_a", help="ElementDoc JSON path, or - for stdin")
    p.add_argument("path_b", help="ElementDoc JSON path, or - for stdin")
    p.add_argument("--order", type=_positive_int, default=None)
    p.set_defaults(run=_product)

    p = sub.add_parser("invert", help="group inverse of an element (prints ElementDoc)")
    _add_element_args(p)
    p.set_defaults(run=lambda a: _print(element_to_json, group.inverse(_read_element(a))))

    p = sub.add_parser("apply", help="fundamental-theorem action on a series")
    _add_element_args(p)
    p.add_argument("--gf", required=True, help="expression for the series acted on")
    p.add_argument("--terms", type=_positive_int, default=20)
    p.add_argument("--format", choices=("plain", "csv"), default="plain")
    p.set_defaults(run=_apply)

    for verb, sums, description in (
        ("rowsums", sequences.row_sums, "row sums of an element's matrix"),
        ("diagsums", sequences.diagonal_sums, "diagonal sums of an element's matrix"),
    ):
        p = sub.add_parser(verb, help=description)
        _add_element_args(p)
        p.add_argument("--terms", type=_positive_int, default=20)
        p.add_argument("--format", choices=("plain", "csv"), default="plain")
        p.set_defaults(run=lambda a, sums=sums: _print(
            format_sequence, sums(_read_element(a), a.terms), a.format))

    p = sub.add_parser("hankel", help="Hankel transform of a sequence file")
    p.add_argument("path", help="sequence file (one term per line or comma-separated), - for stdin")
    p.add_argument("--format", choices=("plain", "csv"), default="plain")
    p.set_defaults(run=lambda a: _print(
        format_sequence, sequences.hankel_transform(parse_sequence(read_input(a.path))), a.format))

    p = sub.add_parser("interleave", help="split a sequence into residue-class slots")
    p.add_argument("path", help="sequence file, - for stdin")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--format", choices=("plain", "csv"), default="csv")
    p.set_defaults(run=_interleave)

    p = sub.add_parser("lattice", help="lattice path counting table / left factors")
    p.add_argument("path", help="LatticeSpec JSON path, or - for stdin")
    p.add_argument("--rows", type=_positive_int, default=None, help="rows of the table (default 10)")
    p.add_argument("--left-factors", type=_positive_int, default=None, metavar="TERMS",
                   help="print this many left-factor counts instead of the table")
    p.set_defaults(run=_lattice)

    sub.add_parser("verify-paper", help="run every built-in golden fixture").set_defaults(
        run=_verify_paper)

    # a handler's usage error prints its own verb's usage and options
    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args) or 0
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
