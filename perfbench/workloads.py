"""Workload inputs, the timed calls made on them, and the checks of their outputs.

A workload is a list of ``Job``s built from a seed.  One job is one timed
call into a public function of mriordan.  Its check runs outside the timed
region and uses only names in ``mriordan.__all__``, ``mriordan.cli.run``
and the golden reference tables, plus this file's own arithmetic, so no
oracle that lives inside the package is needed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional


@dataclass
class Job:
    name: str  # kind of call, e.g. "inverse" or "cli.invert"
    call: Callable[[list], object]  # gets the outputs of this pass so far
    check: Callable[[object, list], Optional[str]]  # None when the output is right
    after: Optional[Callable[[object], None]] = None  # untimed glue, e.g. saving a file


class Builder:
    """Collects jobs; ``add`` returns the index later jobs refer to."""

    def __init__(self):
        self.jobs = []

    def add(self, name, call, check, after=None) -> int:
        self.jobs.append(Job(name, call, check, after))
        return len(self.jobs) - 1


# -- shared arithmetic of the checks ---------------------------------------


def _convolve(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _row_sums(rows):
    return [sum(row) for row in rows]


def _diagonal_sums(rows):
    return [sum(rows[n - k][k] for k in range(n // 2 + 1)) for n in range(len(rows))]


def _values(out):
    """Every number in a library result, for the integrality check."""
    if hasattr(out, "entries"):
        return [v for row in out.entries for v in row]
    if hasattr(out, "coeffs"):
        return list(out.coeffs)
    if hasattr(out, "g"):
        return list(out.g.coeffs) + [c for fi in out.f for c in fi.coeffs]
    flat = []
    for v in out:
        flat.extend(v if isinstance(v, list) else [v])
    return flat


def _integral(out) -> bool:
    return all(Fraction(v).denominator == 1 for v in _values(out))


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][j] * b[j][k] for j in range(n)) for k in range(n)] for i in range(n)]


def _is_identity(rows) -> bool:
    return all(v == (n == k) for n, row in enumerate(rows) for k, v in enumerate(row))


# -- algebra_int and algebra_rational ---------------------------------------

# (order N, m).  The compressed order N/m is at most 36 for integers and 16
# for rationals, so that no call takes much over 0.1 s: a pass then takes
# about 1.5 s, and a run has enough passes for each call's median time to
# settle (see run.measure).
INT_CONFIGS = ((36, 1), (36, 2), (36, 3), (36, 4), (72, 2), (72, 3), (72, 4), (144, 4))
RATIONAL_CONFIGS = ((24, 2), (24, 3), (24, 4), (36, 3), (36, 4), (48, 3), (48, 4))
TINY_INT_CONFIGS = ((12, 1), (12, 2), (24, 3), (24, 4))
TINY_RATIONAL_CONFIGS = ((24, 2), (24, 3))


def _int_coeff(rng):
    return rng.randint(-2, 2)


def _rational_coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _element(mr, rng, m, order, coeff):
    """Random proper element: unit leading coefficients, the rest from coeff."""
    def block(length):
        return mr.Series([1] + [coeff(rng) for _ in range(length)])

    g = mr.aerate(block(order // m), m, 0, order=order)
    f = [mr.aerate(block((order - 1) // m), m, 1, order=order) for _ in range(m)]
    return mr.new_element(m, g, f, order)


def _add_element_jobs(mr, b, a, other, mat_a, mat_other, G, integral):
    """The timed calls on element a (partner `other`), and their checks.

    mat_a and mat_other index the to_matrix jobs of the two elements in the
    same pass; the matrix product and the checks reuse their outputs.  G is
    the series the fundamental-theorem action is applied to.
    """
    m, order, rows = a.m, a.order, a.order + 1
    coeffs = list(G.coeffs)

    def checked(check):
        if not integral:
            return check

        def with_integrality(out, outs):
            if not _integral(out):
                return "integer input gave a non-integral output"
            return check(out, outs)
        return with_integrality

    def check_matmul(out, outs):
        return None if out.rows == rows else f"{out.rows} rows, want {rows}"

    mm = b.add("matmul", lambda o: o[mat_a] @ o[mat_other], checked(check_matmul))

    def check_product(out, outs):
        if mr.to_matrix(out, rows) != outs[mm]:
            return "to_matrix(product(a, b)) != to_matrix(a) @ to_matrix(b)"
        return None

    def check_inverse(out, outs):
        ident = mr.identity(m, order)
        if mr.product(a, out) != ident or mr.product(out, a) != ident:
            return "product with the inverse is not the identity"
        return None

    def check_row_sums(out, outs):
        return None if out == _row_sums(outs[mat_a].entries) else "row sums differ from the matrix"

    def check_diagonal_sums(out, outs):
        want = _diagonal_sums(outs[mat_a].entries)
        return None if out == want else "diagonal sums differ from the matrix"

    def check_ftra(out, outs):
        mat = outs[mat_a].entries
        want = [sum(mat[n][k] * coeffs[k] for k in range(n + 1)) for n in range(rows)]
        return None if list(out.coeffs) == want else "FTRA differs from matrix times G"

    def check_table(out, outs):
        mat = outs[mat_a].entries
        ok = len(out) == rows and all(list(out[n]) == list(mat[n][: n + 1]) for n in range(rows))
        return None if ok else "bivariate table differs from the matrix"

    b.add("product", lambda o: mr.product(a, other), checked(check_product))
    b.add("inverse", lambda o: mr.inverse(a), checked(check_inverse))
    b.add("row_sums", lambda o: mr.row_sums(a, rows), checked(check_row_sums))
    b.add("diagonal_sums", lambda o: mr.diagonal_sums(a, rows), checked(check_diagonal_sums))
    b.add("apply_ftra", lambda o: mr.apply_ftra(a, G), checked(check_ftra))
    b.add("bivariate_table", lambda o: mr.bivariate_table(a, rows), checked(check_table))


def _matrix_job(mr, b, e, integral):
    rows = e.order + 1

    def check(out, outs):
        mat = out.entries
        if out.rows != rows or len(mat) != rows:
            return f"{out.rows} rows, want {rows}"
        if any(mat[n][k] for n in range(rows) for k in range(n + 1, rows)):
            return "matrix is not lower-triangular"
        if [mat[n][0] for n in range(rows)] != list(e.g.coeffs[:rows]):
            return "column 0 is not g"
        if [mat[n][1] for n in range(rows)] != _convolve(e.g.coeffs, e.f[0].coeffs, rows):
            return "column 1 is not g*f_1"
        if integral and not _integral(out):
            return "integer input gave a non-integral output"
        return None

    return b.add("to_matrix", lambda o: mr.to_matrix(e, rows), check)


def build_algebra(mr, seed, configs, coeff, integral, per_config):
    """per_config(order, m) random elements per configuration.

    Each element's partner is the next one of its configuration, or itself
    when it is alone.
    """
    rng = random.Random(seed)
    b = Builder()
    for order, m in configs:
        count = per_config(order, m)
        group = [_element(mr, rng, m, order, coeff) for _ in range(count)]
        G = mr.aerate(mr.Series([1] + [coeff(rng) for _ in range(order // m)]), m, 0, order=order)
        mats = [_matrix_job(mr, b, e, integral) for e in group]
        for i, e in enumerate(group):
            j = (i + 1) % count
            _add_element_jobs(mr, b, e, group[j], mats[i], mats[j], G, integral)
    return b.jobs


# -- cli_session ---------------------------------------------------------------


class CliResult(NamedTuple):
    code: object
    out: str
    err: str


def run_cli(mr, argv, stdin_text=""):
    """One in-process call of ``mriordan.cli.run`` with redirected streams."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mr.cli.run(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def _numbers(text):
    return [Fraction(tok) for tok in text.replace(",", " ").split()]


def _matrix_rows(text):
    return [[Fraction(tok) for tok in line.split()] for line in text.splitlines()]


def _catalan(n):
    c = [1]
    for k in range(n - 1):
        c.append(c[-1] * 2 * (2 * k + 1) // (k + 2))
    return c


def _central_binomials(n):
    c = [1]
    for k in range(1, n):
        c.append(c[-1] * 2 * (2 * k - 1) // k)
    return c


# Constants for generated documents.  A document's slot fixes its structure
# and the size of its constants, which set how fast coefficients grow; the
# seed picks the signs.  Seeds then change values but not the amount of work.
_INTEGRAL_CONSTANTS = ("1", "2", "3")
_RATIONAL_CONSTANTS = ("1/2", "3/2", "2/3")


def _constants(slot):
    return _RATIONAL_CONSTANTS if slot % 2 else _INTEGRAL_CONSTANTS


def _unit_expr(rng, kind, c, c2):
    """An expression in x^3 with constant term 1."""
    sign = rng.choice("+-")
    if kind == 0:
        return f"1/(1{sign}{c}*x^3)"
    if kind == 1:
        return f"sqrt(1{sign}{c}*x^3)"
    if kind == 2:
        return f"catalan({'-' if sign == '-' else ''}{c}*x^3)"
    if kind == 3:
        return f"(1{sign}{c}*x^3)^3"
    return f"1{sign}{c}*x^3{rng.choice('+-')}{c2}*x^6"


def _element_doc(rng, slot):
    """An m = 3, order 60 ElementDoc using let-bindings, sqrt and catalan."""
    cs = _constants(slot)
    units = [_unit_expr(rng, (slot + k) % 5, cs[(slot + k) % 3], cs[(slot + k + 1) % 3])
             for k in range(3)]
    lets = [{"name": "u", "expr": units[0]},
            {"name": "v", "expr": ("u^2", f"u*({units[1]})")[slot % 2]}]
    factors = ("u", "v", "u/v", f"({units[2]})")
    return {
        "m": 3,
        "order": 60,
        "let": lets,
        "g": factors[slot % 4],
        "f": [f"x*{factors[(slot + i) % 4]}" for i in (1, 2, 3)],
    }


def _ok(res):
    if res.code != 0:
        return f"exit code {res.code}: {res.err.strip()[:200]}"
    if res.err:
        return f"unexpected stderr: {res.err.strip()[:200]}"
    return None


def _cli_check(predicate, message):
    """A check that first requires a clean exit, then predicate(res, outs)."""
    def check(res, outs):
        problem = _ok(res)
        if problem is None and not predicate(res, outs):
            problem = message
        return problem
    return check


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Sizes of one cli_session pass.  Every document gets matrix, rowsums,
# diagsums and apply; the first CLI_CHAINED_DOCS (the three fixtures) also
# get invert, piped into matrix and rowsums, and product with the inverse;
# the generated ones get an invert at order 30.
CLI_GENERATED_DOCS = 4
CLI_CHAINED_DOCS = 3
CLI_SEQUENCES = 10


def build_cli(mr, seed, tiny, root, workdir):
    """The CLI calls of one pass; inputs the CLI reads are written to workdir."""
    rng = random.Random(seed)
    b = Builder()

    def cli(name, argv, check, stdin="", after=None):
        # stdin is literal text, or the index of an earlier job whose stdout is piped in
        if isinstance(stdin, int):
            call = lambda o: run_cli(mr, argv, o[stdin].out)
        else:
            call = lambda o: run_cli(mr, argv, stdin)
        return b.add(name, call, check, after)

    fixtures = os.path.join(root, "fixtures")
    docs = [os.path.join(fixtures, f"example{i}.json") for i in (1, 2, 3)]
    for i in range(1 if tiny else CLI_GENERATED_DOCS):
        path = os.path.join(workdir, f"doc{i}.json")
        _write(path, json.dumps(_element_doc(rng, i)))
        docs.append(path)

    for i, path in enumerate(docs):
        r = str(8 + i % 9)
        mat = cli("cli.matrix", ["matrix", path, "--rows", r],
                  _cli_check(lambda res, o: all(row[n] == 1 for n, row in
                                                enumerate(_matrix_rows(res.out))),
                             "diagonal of a proper element is not 1"))
        cli("cli.rowsums", ["rowsums", path, "--terms", r],
            _cli_check(lambda res, o, mat=mat: _numbers(res.out) == _row_sums(_matrix_rows(o[mat].out)),
                       "row sums differ from the matrix"))
        cli("cli.diagsums", ["diagsums", path, "--terms", r],
            _cli_check(lambda res, o, mat=mat: _numbers(res.out) == _diagonal_sums(_matrix_rows(o[mat].out)),
                       "diagonal sums differ from the matrix"))
        c = Fraction(_constants(i)[i % 3]) * rng.choice((1, -1))

        def ftra_ok(res, o, mat=mat, c=c):
            rows_ = _matrix_rows(o[mat].out)
            want = [sum(row[k] * c ** (k // 3) for k in range(0, n + 1, 3))
                    for n, row in enumerate(rows_)]
            return _numbers(res.out) == want
        cli("cli.apply", ["apply", path, "--gf", f"1/(1-{c}*x^3)", "--terms", r],
            _cli_check(ftra_ok, "FTRA differs from matrix times G"))

        if i >= CLI_CHAINED_DOCS:
            # a second truncation order, so the traced run can fit inverse scaling
            cli("cli.invert", ["invert", path, "--order", "30"],
                _cli_check(lambda res, o: json.loads(res.out)["order"] == 30,
                           "inverse document has the wrong order"))
            continue
        inv_path = os.path.join(workdir, f"inv{i}.json")
        inv = cli("cli.invert", ["invert", path],
                  _cli_check(lambda res, o: json.loads(res.out)["order"] == 60,
                             "inverse document has the wrong order"),
                  after=lambda res, p=inv_path: _write(p, res.out))
        imat = cli("cli.matrix", ["matrix", "-", "--rows", r],
                   _cli_check(lambda res, o, mat=mat: _is_identity(
                       _matmul(_matrix_rows(res.out), _matrix_rows(o[mat].out))),
                       "inverse matrix times matrix is not the identity"),
                   stdin=inv)
        cli("cli.rowsums", ["rowsums", "-", "--terms", r],
            _cli_check(lambda res, o, imat=imat: _numbers(res.out) == _row_sums(_matrix_rows(o[imat].out)),
                       "row sums of the inverse differ from its matrix"),
            stdin=inv)
        prod = cli("cli.product", ["product", path, inv_path],
                   _cli_check(lambda res, o: json.loads(res.out)["g"] == "1"
                              and json.loads(res.out)["f"] == ["x"] * 3,
                              "element times its inverse is not the identity"))
        cli("cli.matrix", ["matrix", "-", "--rows", r],
            _cli_check(lambda res, o: _is_identity(_matrix_rows(res.out)),
                       "matrix of element times inverse is not the identity"),
            stdin=prod)

    for j, length in enumerate((20, 40)[: 1 if tiny else 2]):
        path = os.path.join(workdir, f"catalan{j}.txt")
        _write(path, "\n".join(map(str, _catalan(length))))
        cli("cli.hankel", ["hankel", path],
            _cli_check(lambda res, o, n=(length + 1) // 2: _numbers(res.out) == [1] * n,
                       "Hankel transform of the Catalan numbers is not all 1s"))
    length = 30
    text = ", ".join(map(str, _central_binomials(length)))
    cli("cli.hankel", ["hankel", "-", "--format", "csv"],
        _cli_check(lambda res, o, n=(length + 1) // 2: _numbers(res.out) == [2 ** k for k in range(n)],
                   "Hankel transform of binomial(2n, n) is not 2^n"),
        stdin=text)
    for j in range(2 if tiny else CLI_SEQUENCES):
        length = 20 + j
        values = [rng.randint(-9, 9) for _ in range(length)]
        path = os.path.join(workdir, f"seq{j}.txt")
        _write(path, "\n".join(map(str, values)))
        cli("cli.hankel", ["hankel", path],
            _cli_check(lambda res, o, v=values: len(_numbers(res.out)) == (len(v) + 1) // 2
                       and _numbers(res.out)[0] == v[0],
                       "Hankel transform has the wrong length or first term"))
        for m in (2 + j % 2, 4):
            cli("cli.interleave", ["interleave", path, "--m", str(m)],
                _cli_check(lambda res, o, v=values, m=m: [_numbers(line) for line in res.out.splitlines()]
                           == [v[s::m] for s in range(m)],
                           "interleaving differs from the residue-class split"))

    threefold = os.path.join(fixtures, "lattice_threefold.json")
    up1_down2 = os.path.join(fixtures, "lattice_up1_down2.json")
    golden = [[Fraction(v) for v in row] for row in mr.golden.THREEFOLD_MATRIX]
    cli("cli.lattice", ["lattice", threefold, "--rows", "10"],
        _cli_check(lambda res, o: _matrix_rows(res.out) == golden,
                   "lattice table differs from the golden three-fold matrix"))
    lattice_sizes = (((threefold, (12, 40), (40,)), (up1_down2, (24,), (40,))) if tiny else
                     ((threefold, (12, 16, 20, 24, 28, 32, 36, 40), (50, 100, 200, 300)),
                      (up1_down2, (8, 12, 16, 20, 24), (50, 100, 200, 300))))
    for spec, table_rows, left_terms in lattice_sizes:
        for rows in table_rows:
            table = cli("cli.lattice", ["lattice", spec, "--rows", str(rows)],
                        _cli_check(lambda res, o, spec=spec: spec != threefold or
                                   [row[:10] for row in _matrix_rows(res.out)[:10]] == golden,
                                   "lattice table differs from the golden three-fold matrix"))
        # checked against the spec's largest table, the last one made
        for terms in left_terms:
            cli("cli.lattice", ["lattice", spec, "--left-factors", str(terms)],
                _cli_check(lambda res, o, table=table, terms=terms:
                           len(_numbers(res.out)) == terms
                           and _numbers(res.out)[: len(_matrix_rows(o[table].out))]
                           == _row_sums(_matrix_rows(o[table].out)),
                           "left factors differ from the table's row sums"))

    cli("cli.verify_paper", ["verify-paper"],
        _cli_check(lambda res, o: res.out.splitlines()[-1] == "25/25 fixtures passed",
                   "verify-paper did not pass 25/25"))
    return b.jobs


# -- the registry ------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    needs_cli: bool
    build: Callable  # (mr, seed, tiny, root, workdir) -> list of Job


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "algebra_int",
            False,
            lambda mr, seed, tiny, root, workdir: build_algebra(
                mr, seed, TINY_INT_CONFIGS if tiny else INT_CONFIGS, _int_coeff, True,
                # one element where N/m = 36, whose inverse is the slowest call;
                # two elsewhere, so cheap calls of many sizes fill the middle of
                # the latency distribution
                lambda order, m: 1 if order // m >= 36 else 2),
        ),
        Workload(
            "algebra_rational",
            False,
            lambda mr, seed, tiny, root, workdir: build_algebra(
                mr, seed, TINY_RATIONAL_CONFIGS if tiny else RATIONAL_CONFIGS,
                _rational_coeff, False, lambda order, m: 2),
        ),
        Workload("cli_session", True, build_cli),
    )
}
