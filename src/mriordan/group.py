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

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .errors import (
    BlockProfileViolation,
    InvalidArgument,
    MixedModulus,
    MixedOrder,
    NonUnitLeadingCoefficient,
    OrderTooSmall,
)
from .series import Series, aerate, check_block_profile, compose, compress
from .series import exact_coeff, revert


@dataclass(frozen=True)
class MRiordanElement:
    """A validated tuple (g, f_1, ..., f_m) at a common truncation order."""

    m: int
    g: Series
    f: tuple
    order: int

    @property
    def is_proper(self) -> bool:
        return self.g[0] == 1 and all(fi[1] == 1 for fi in self.f)

    def is_integral(self) -> bool:
        return self.g.is_integral() and all(fi.is_integral() for fi in self.f)

    def eq_through(self, other: "MRiordanElement", order: int) -> bool:
        return (
            self.m == other.m
            and self.g.eq_through(other.g, order)
            and all(a.eq_through(b, order) for a, b in zip(self.f, other.f))
        )


@dataclass(frozen=True)
class CoeffMatrix:
    """Lower-triangular coefficient matrix, stored row-major and exact;
    entries follow the ``Series`` coefficient representation."""

    rows: int
    entries: tuple  # tuple of row tuples, each of length `rows`

    def __getitem__(self, nk):
        n, k = nk
        return self.entries[n][k]

    def row_sums(self) -> list:
        return [exact_coeff(sum(row)) for row in self.entries]

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.entries for v in row)

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        # both operands are lower-triangular, so entry (n, k) only sums
        # over i in k..n
        size = self.rows
        rhs = other.entries
        out = []
        for n in range(size):
            row = self.entries[n]
            out.append(
                tuple(
                    exact_coeff(sum(row[i] * rhs[i][k] for i in range(k, n + 1)))
                    if k <= n
                    else 0
                    for k in range(size)
                )
            )
        return CoeffMatrix(size, tuple(out))


def new_element(m: int, g: Series, f: Sequence[Series], order: int | None = None) -> MRiordanElement:
    """Validate and build an element; raises on any profile violation."""
    if m < 1:
        raise InvalidArgument("m must be a positive integer")
    f = tuple(f)
    if len(f) != m:
        raise InvalidArgument(f"expected {m} f-series, got {len(f)}")
    if order is None:
        order = g.order
    if g.order != order or any(fi.order != order for fi in f):
        raise MixedOrder("all components must share the element's truncation order")
    try:
        check_block_profile(g, m, 0)
    except BlockProfileViolation as exc:
        raise BlockProfileViolation(f"g: {exc}", index=exc.index, component="g")
    for i, fi in enumerate(f, start=1):
        try:
            check_block_profile(fi, m, 1)
        except BlockProfileViolation as exc:
            raise BlockProfileViolation(
                f"f_{i}: {exc}", index=exc.index, component=f"f_{i}"
            )
    if not g[0]:
        raise NonUnitLeadingCoefficient("g has zero constant term")
    for i, fi in enumerate(f, start=1):
        if order < 1 or not fi[1]:
            raise NonUnitLeadingCoefficient(f"f_{i} has zero coefficient at x^1")
    return MRiordanElement(m=m, g=g, f=f, order=order)


def identity(m: int, order: int) -> MRiordanElement:
    x = Series.x(order)
    return new_element(m, Series.one(order), [x] * m, order)


def step_series(e: MRiordanElement) -> Series:
    """w = f_1 * ... * f_m = h^m; valuation m, block residue 0.  It is the
    compressed step series of the element, aerated back to the x-domain."""
    return aerate(_compressed(e)[2], e.m, 0, order=e.order)


def _compressed(e: MRiordanElement):
    """(ghat, [fhat_i], what): the element in the t = x^m domain.

    ghat has order N//m, each fhat_i has order (N-1)//m, and what (the
    compressed step series t*prod(fhat_i)) has order (N-1)//m + 1, every
    coefficient exact; ``compose`` truncates it to what each caller needs.
    """
    ghat = compress(e.g, e.m, 0)
    fhats = [compress(fi, e.m, 1) for fi in e.f]
    what = prod(fhats[1:], start=fhats[0]).shift_up(1)
    return ghat, fhats, what


def _rebuild(m: int, ghat: Series, fhats: Sequence[Series], order: int) -> MRiordanElement:
    g = aerate(ghat, m, 0, order=order)
    f = [aerate(fh, m, 1, order=order) for fh in fhats]
    return new_element(m, g, f, order)


def _check_compatible(a: MRiordanElement, b: MRiordanElement) -> None:
    if a.m != b.m:
        raise MixedModulus(f"cannot combine m={a.m} with m={b.m}")
    if a.order != b.order:
        raise MixedOrder(f"cannot combine order {a.order} with order {b.order}")


def product(a: MRiordanElement, b: MRiordanElement) -> MRiordanElement:
    """Group product, computed entirely in the compressed domain.

    With w_a the compressed step series of a: G(h) becomes Ghat o w_a and
    (f_i/h)*F_i(h) becomes f_i * (Fhat_i o w_a).
    """
    _check_compatible(a, b)
    ghat_a, fhats_a, what = _compressed(a)
    ghat_b, fhats_b, _ = _compressed(b)
    ghat = ghat_a * compose(ghat_b, what)
    fhats = [fa * compose(fb, what) for fa, fb in zip(fhats_a, fhats_b)]
    return _rebuild(a.m, ghat, fhats, a.order)


def inverse(e: MRiordanElement) -> MRiordanElement:
    """Group inverse: revert the compressed step series, then substitute.

    hbar^m as a function of x is wbar(x^m) with wbar = revert(what), so
    1/g(hbar) = 1/(ghat o wbar) and x*hbar/f_i(hbar) = x/(fhat_i o wbar).
    """
    ghat, fhats, what = _compressed(e)
    wbar = revert(what)
    inv_ghat = compose(ghat, wbar).recip()
    inv_fhats = [compose(fh, wbar).recip() for fh in fhats]
    return _rebuild(e.m, inv_ghat, inv_fhats, e.order)


def column_gfs(g: Series, f: Sequence[Series], ncols: int) -> list:
    """The first `ncols` column generating functions of an m-Riordan matrix:
    g, g*f_1, g*f_1*f_2, ..., each column the previous one times the next
    f_i in cyclic order.  The series need not be block-profiled."""
    cols = [g]
    for k in range(1, ncols):
        cols.append(cols[-1] * f[(k - 1) % len(f)])
    return cols


def to_matrix(e: MRiordanElement, rows: int) -> CoeffMatrix:
    """Expand the element to `rows` rows; column k is the k-th series of
    ``column_gfs``."""
    if rows < 1:
        raise InvalidArgument("rows must be >= 1")
    if rows > e.order + 1:
        raise OrderTooSmall(f"{rows} rows need order >= {rows - 1}, have {e.order}")
    cols = column_gfs(e.g, e.f, rows)
    entries = tuple(
        tuple(cols[k][n] if k <= n else 0 for k in range(rows)) for n in range(rows)
    )
    return CoeffMatrix(rows, entries)


def apply_ftra(e: MRiordanElement, G: Series) -> Series:
    """The fundamental-theorem action: (g, f_1..f_m) . G = g * G(h)."""
    check_block_profile(G, e.m, 0)
    ghat, _, what = _compressed(e)
    Ghat = compress(G.truncate(e.order), e.m, 0)
    result_hat = ghat * compose(Ghat, what)
    return aerate(result_hat, e.m, 0, order=min(e.order, G.order))


# -- subgroup structure -------------------------------------------------


def classify_subgroups(e: MRiordanElement) -> set:
    """Labels: A (g = 1), B_i (f_i = x*g), Classical (all f_i equal),
    Proper (unit leading coefficients)."""
    labels = set()
    n = e.order
    if e.g.eq_through(Series.one(n), n):
        labels.add("A")
    xg = e.g.shift_up(1).truncate(n)
    for i, fi in enumerate(e.f, start=1):
        if fi.eq_through(xg, n):
            labels.add(f"B_{i}")
    if all(fi.eq_through(e.f[0], n) for fi in e.f[1:]):
        labels.add("Classical")
    if e.is_proper:
        labels.add("Proper")
    return labels


def decompose_semidirect(e: MRiordanElement):
    """Split e = (g, x, ..., x) * (1, f_1, ..., f_m)."""
    x = Series.x(e.order)
    left = new_element(e.m, e.g, [x] * e.m, e.order)
    right = new_element(e.m, Series.one(e.order), list(e.f), e.order)
    return left, right
