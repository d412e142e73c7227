"""The m-Riordan group: elements, matrices, product, inverse, FTRA.

All group arithmetic runs in the compressed domain t = x^m.  An element
(g, f_1, ..., f_m) has g in R[[x^m]] and f_i in x*R[[x^m]], so each
component is fully described by a plain series in t.  Every composed
quantity the product/inverse formulas need (G(h), f_i/h * F_i(h), g(hbar),
x*hbar/f_i(hbar)) again lies in R[[x^m]] or x*R[[x^m]] and can be written
in terms of w = h^m = f_1*...*f_m, so the m-th root h itself is never
materialized.  That keeps every proper-case computation inside the
integers.
"""

from __future__ import annotations

import struct
from functools import cached_property
from itertools import chain
from math import gcd, prod
from operator import mul
from typing import Sequence

from . import series
from .errors import (
    BlockProfileViolation,
    InvalidArgument,
    MixedModulus,
    MixedOrder,
    NonUnitLeadingCoefficient,
    OrderTooSmall,
)
from .records import Frozen, _set
from .series import Series, aerate, compose, compose_many, compose_reverted, compress
from .series import _at_least, exact_coeff, exact_ratio, scale


class MRiordanElement(Frozen):
    """A validated tuple (g, f_1, ..., f_m) at a common truncation order N,
    stored in the t = x^m domain as g(x) = ghat(x^m), f_i(x) = x*fhat_i(x^m),
    with ghat of order N//m and each fhat_i of order (N-1)//m.  Build one
    with ``new_element``; the x-domain series are views."""

    _fields = ("m", "ghat", "fhats", "order")

    def __init__(self, m: int, ghat: Series, fhats: tuple, order: int):
        _set(self, "m", m)
        _set(self, "ghat", ghat)
        _set(self, "fhats", fhats)
        _set(self, "order", order)

    @cached_property
    def g(self) -> Series:
        return aerate(self.ghat, self.m, 0, order=self.order)

    @cached_property
    def f(self) -> tuple:
        return tuple(aerate(fh, self.m, 1, order=self.order) for fh in self.fhats)

    @cached_property
    def what(self) -> Series:
        """The compressed step series t*prod(fhat_i), of order (N-1)//m + 1,
        every coefficient exact; ``compose_many`` and ``compose_reverted``
        truncate it to what each caller needs."""
        return prod(self.fhats[1:], start=self.fhats[0]).shift_up(1)

    @property
    def is_proper(self) -> bool:
        return self.ghat[0] == 1 and all(fh[0] == 1 for fh in self.fhats)

    def is_integral(self) -> bool:
        return self.ghat.is_integral() and all(fh.is_integral() for fh in self.fhats)

    def eq_through(self, other: "MRiordanElement", order: int) -> bool:
        return (
            self.m == other.m
            and self.g.eq_through(other.g, order)
            and all(a.eq_through(b, order) for a, b in zip(self.f, other.f))
        )


class CoeffMatrix(Frozen):
    """Lower-triangular coefficient matrix, stored row-major as tuples of
    entries in the ``Series`` coefficient representation (any other type is
    a ``TypeError``, and so is a `rows` that is not an ``int``).  A shape
    that is not `rows` rows of `rows` entries, or a nonzero entry above the
    diagonal, is an ``InvalidArgument``.  The
    constructor checks this once, where a matrix enters the package, and
    finds the stride ``_stride`` (not a field): the gcd d of n - k over the
    nonzero entries below the diagonal, 0 if none, so entry (n, k) is zero
    unless d divides n - k.  The package's own builders (``to_matrix``,
    ``@``, ``count_table``) go through ``_built`` and pass a divisor of d."""

    _fields = ("rows", "entries")  # entries: tuple of row tuples, each of length `rows`

    def __init__(self, rows: int, entries):
        _at_least(rows, 0, "rows")
        entries = tuple(map(tuple, entries))
        # one type scan for an all-int matrix; only otherwise is each entry checked
        if not all(list(map(type, r)).count(int) == len(r) for r in entries):
            entries = tuple(tuple(map(exact_coeff, r)) for r in entries)
        if len(entries) != rows:
            raise InvalidArgument(f"expected {rows} rows, got {len(entries)}")
        d = 0
        for n, row in enumerate(entries):
            if len(row) != rows:
                raise InvalidArgument(f"row {n} has {len(row)} entries, expected {rows}")
            if any(row[n + 1 :]):
                raise InvalidArgument(f"row {n} has a nonzero entry above the diagonal")
            if d != 1:
                d = gcd(d, *(n - k for k in range(n) if row[k]))
        _set(self, "rows", rows)
        _set(self, "entries", entries)
        _set(self, "_stride", d)

    @classmethod
    def _built(cls, rows: int, lists, stride: int) -> "CoeffMatrix":
        """A matrix of rows the package itself built: `rows` lower-triangular
        rows of `rows` entries, already in the coefficient representation,
        so nothing is checked or normalised.  `stride` must divide the gcd
        the constructor would find (0 only where that is 0)."""
        mat = object.__new__(cls)
        mat.__dict__.update(rows=rows, entries=tuple(map(tuple, lists)), _stride=stride)
        return mat

    def __getitem__(self, nk):
        n, k = nk
        return self.entries[n][k]

    def row_sums(self) -> list:
        return [exact_coeff(sum(row)) for row in self.entries]

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.entries for v in row)

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        if not isinstance(other, CoeffMatrix):
            return NotImplemented  # so that Python raises TypeError
        # both operands are lower-triangular and zero off the classes
        # n = k (mod d) of their common stride d, and so is the product:
        # entry (n, k) is computed only in n's class, from the entries of
        # row n and column k in that class (two diagonal operands: d = rows).
        # Two int operands whose product fits 64-bit slots take
        # ``_packed_product``; otherwise each row and column is scaled to
        # integer numerators once, and there is one division per entry
        size = self.rows
        if other.rows != size:
            raise InvalidArgument(f"cannot multiply a {size}-row matrix by a {other.rows}-row one")
        stride = gcd(self._stride, other._stride)
        d = stride or size
        out = _packed_product(self.entries, other.entries, d)
        if out is None:
            cols = [scale(col[k::d]) for k, col in enumerate(zip(*other.entries))]
            out = []
            for n, row in enumerate(self.entries):
                cells = [0] * size
                nums, dr = scale(row[n % d : n + 1 : d])
                for j, k in enumerate(range(n % d, n + 1, d)):
                    col, dc = cols[k]
                    dot = sum(map(mul, nums[j:], col))  # i = k, k + d, ..., n
                    cells[k] = dot if dr == dc == 1 else exact_ratio(dot, dr * dc)
                out.append(cells)
        return CoeffMatrix._built(size, out, stride)


def _packed_product(a_rows: tuple, b_rows: tuple, d: int):
    """The rows of A @ B for matrices of stride d given as their rows, or
    None when an entry is not an int or the product might not fit the
    slots.

    The class slice of each row of B (its entries k = i mod d, ..., i) is
    packed once into slots of c 64-bit words (Kronecker substitution) by
    ``series._pack64``, with a zero high word after each entry when c = 2.
    Row n of the product is then the one integer sum of row n's class
    slice times packed rows n mod d, n mod d + d, ..., n, read back with
    one ``struct.unpack`` as signed words (for c = 2 a slot is its low word
    plus its high word times 2^64).  A slot of one word so holds
    |v| < 2^63, and one of two |v| < 2^127 - 2^63.  With L the longest class slice, every
    entry of the product is at most L * max|A| * max|B|, and bits(L) +
    bits(max|A|) + bits(max|B|) + 1 <= 64c bounds that by 2^(64c - 1) -
    2^(64c - 1 - bits(max|B|)): in the slot, as every |b| < 2^63.  The
    last row of B is checked first, by one type scan and one width scan
    with no exception raised: its entries are the largest, so a wide or
    rational B is refused there at the cost of one row."""
    if not b_rows:
        return None
    last = b_rows[-1]
    if list(map(type, last)).count(int) < len(last) or max(map(int.bit_length, last)) > 63:
        return None
    try:
        left = [row[n % d : n + 1 : d] for n, row in enumerate(a_rows)]
        right = [row[i % d : i + 1 : d] for i, row in enumerate(b_rows)]
        wa = max(map(int.bit_length, chain.from_iterable(left)))
        wb = max(map(int.bit_length, chain.from_iterable(right)))
    except TypeError:  # a Fraction in another row
        return None
    width = len(left[-1]).bit_length() + wa + wb + 1  # left[-1] is the longest slice
    if wb > 63 or width > 128:
        return None
    c = 1 if width <= 64 else 2
    tops = [series._tops(c * k) for k in range(len(left[-1]) + 1)]  # by slot count
    packed = []
    for r in right:
        words = [0] * (c * len(r))
        words[::c] = r
        packed.append(series._pack64(words, tops[len(r)]))
    out = []
    for n, a in enumerate(left):
        k, t = len(a), tops[len(a)]
        raw = (sum(map(mul, a, packed[n % d :: d]), t) ^ t).to_bytes(8 * c * k, "little")
        w = struct.unpack(f"<{c * k}q", raw)
        cells = [0] * len(b_rows)
        cells[n % d : n + 1 : d] = w if c == 1 else [lo + (hi << 64) for lo, hi in zip(w[::2], w[1::2])]
        out.append(cells)
    return out


def new_element(m: int, g: Series, f: Sequence[Series], order: int | None = None) -> MRiordanElement:
    """Validate x-domain components and build an element; raises on any
    profile violation."""
    _at_least(m, 1, "m")
    order = g.order if order is None else _at_least(order, 0, "order")
    f = tuple(f)
    if len(f) != m:
        raise InvalidArgument(f"expected {m} f-series, got {len(f)}")
    if g.order != order or any(fi.order != order for fi in f):
        raise MixedOrder("all components must share the element's truncation order")
    ghat = _compress(g, m, 0, "g")
    # at order 0 an f_i stops short of x^1: pad it with the zero that the
    # leading-coefficient check below then reports
    fhats = tuple(
        _compress(fi if order else Series.from_poly(fi.coeffs, 1), m, 1, f"f_{i}")
        for i, fi in enumerate(f, start=1)
    )
    if not ghat[0]:
        raise NonUnitLeadingCoefficient("g has zero constant term")
    for i, fh in enumerate(fhats, start=1):
        if not fh[0]:
            raise NonUnitLeadingCoefficient(f"f_{i} has zero coefficient at x^1")
    return MRiordanElement(m, ghat, fhats, order)


def _compress(s: Series, m: int, residue: int, component: str) -> Series:
    try:
        return compress(s, m, residue)
    except BlockProfileViolation as exc:
        raise BlockProfileViolation(f"{component}: {exc}", index=exc.index, component=component)


def identity(m: int, order: int) -> MRiordanElement:
    x = Series.x(order)
    return new_element(m, Series.one(order), [x] * _at_least(m, 1, "m"), order)


def _check_compatible(a: MRiordanElement, b: MRiordanElement) -> None:
    if a.m != b.m:
        raise MixedModulus(f"cannot combine m={a.m} with m={b.m}")
    if a.order != b.order:
        raise MixedOrder(f"cannot combine order {a.order} with order {b.order}")


def product(a: MRiordanElement, b: MRiordanElement) -> MRiordanElement:
    """Group product, computed entirely in the compressed domain.

    With w_a the compressed step series of a: G(h) becomes Ghat o w_a and
    (f_i/h)*F_i(h) becomes f_i * (Fhat_i o w_a); the m+1 substitutions share
    the powers of w_a.
    """
    _check_compatible(a, b)
    gb, *fbs = compose_many((b.ghat,) + b.fhats, a.what)
    fhats = tuple(fa * fb for fa, fb in zip(a.fhats, fbs))
    return MRiordanElement(a.m, a.ghat * gb, fhats, a.order)


def inverse(e: MRiordanElement) -> MRiordanElement:
    """Group inverse: substitute the reverted compressed step series.

    hbar^m as a function of x is wbar(x^m) with wbar = revert(what), so
    1/g(hbar) = 1/(ghat o wbar) and x*hbar/f_i(hbar) = x/(fhat_i o wbar);
    one Lagrange-Burmann pass gives every substitution without wbar.
    """
    inv_ghat, *inv_fhats = (s.recip() for s in compose_reverted((e.ghat,) + e.fhats, e.what))
    return MRiordanElement(e.m, inv_ghat, tuple(inv_fhats), e.order)


def column_gfs(g: Series, f: Sequence[Series], ncols: int) -> list:
    """The first `ncols` column generating functions of an m-Riordan matrix:
    g, g*f_1, g*f_1*f_2, ..., each column the previous one times the next
    f_i in cyclic order.  The series need not be block-profiled."""
    cols = [g]
    for k in range(1, ncols):
        cols.append(cols[-1] * f[(k - 1) % len(f)])
    return cols


def to_matrix(e: MRiordanElement, rows: int) -> CoeffMatrix:
    """Expand the element to `rows` rows.  Every nonzero index of C_k is a
    sum of the first nonzero indices v of ghat and the fhat_i plus multiples
    of their steps s (``series._lattice``), so m times the gcd of all of
    them divides the matrix's stride; it is 0 only when every component is
    a constant, as for the identity, and the matrix is diagonal."""
    lists = _matrix_rows(e, rows)
    steps = (n for c in (e.ghat, *e.fhats) for n in series._lattice(c.scaled()[0]))
    return CoeffMatrix._built(rows, lists, e.m * gcd(*steps))


def _matrix_rows(e: MRiordanElement, rows: int) -> list:
    """The element's matrix as `rows` list rows.  Column k is x^k C_k(x^m),
    where C_0 = ghat and C_k = C_(k-1) * fhat_((k-1) mod m + 1) is needed
    only through t-order (rows-1-k)//m.  The chain is one
    ``series._product_chain`` on integer numerators over one reduced
    denominator, so the only exact coefficients made are the entries
    written."""
    if _at_least(rows, 1, "rows") > e.order + 1:
        raise OrderTooSmall(f"{rows} rows need order >= {rows - 1}, have {e.order}")
    m = e.m
    entries = [[0] * rows for _ in range(rows)]
    start = e.ghat.scaled()
    sizes = [(rows - 1 - k) // m + 1 for k in range(1, rows)]
    columns = series._product_chain(start, [fh.scaled() for fh in e.fhats], sizes)
    for k, (nums, den) in enumerate(chain([start], columns)):
        values = nums if den == 1 else (exact_ratio(v, den) for v in nums)
        for row, c in zip(entries[k::m], values):
            row[k] = c
    return entries


def apply_ftra(e: MRiordanElement, G: Series) -> Series:
    """The fundamental-theorem action: (g, f_1..f_m) . G = g * G(h)."""
    Ghat = compress(G, e.m, 0).truncate(e.order // e.m)
    result_hat = e.ghat * compose(Ghat, e.what)
    return aerate(result_hat, e.m, 0, order=min(e.order, G.order))


# -- subgroup structure -------------------------------------------------


def classify_subgroups(e: MRiordanElement) -> set:
    """Labels: A (g = 1), B_i (f_i = x*g), Classical (all f_i equal),
    Proper (unit leading coefficients)."""
    labels = set()
    if e.ghat == Series.one(e.ghat.order):
        labels.add("A")
    for i, fh in enumerate(e.fhats, start=1):
        if fh == e.ghat.truncate(fh.order):
            labels.add(f"B_{i}")
    if all(fh == e.fhats[0] for fh in e.fhats[1:]):
        labels.add("Classical")
    if e.is_proper:
        labels.add("Proper")
    return labels


def decompose_semidirect(e: MRiordanElement):
    """Split e = (g, x, ..., x) * (1, f_1, ..., f_m)."""
    one = identity(e.m, e.order)
    return (MRiordanElement(e.m, e.ghat, one.fhats, e.order),
            MRiordanElement(e.m, one.ghat, e.fhats, e.order))
