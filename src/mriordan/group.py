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

from dataclasses import dataclass, replace
from functools import cached_property
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
from .series import Series, aerate, compose, compress
from .series import exact_coeff, revert


@dataclass(frozen=True)
class MRiordanElement:
    """A validated tuple (g, f_1, ..., f_m) at a common truncation order N,
    stored in the t = x^m domain as g(x) = ghat(x^m), f_i(x) = x*fhat_i(x^m),
    with ghat of order N//m and each fhat_i of order (N-1)//m.  Build one
    with ``new_element``; the x-domain series are views."""

    m: int
    ghat: Series
    fhats: tuple
    order: int

    @cached_property
    def g(self) -> Series:
        return aerate(self.ghat, self.m, 0, order=self.order)

    @cached_property
    def f(self) -> tuple:
        return tuple(aerate(fh, self.m, 1, order=self.order) for fh in self.fhats)

    @cached_property
    def what(self) -> Series:
        """The compressed step series t*prod(fhat_i), of order (N-1)//m + 1,
        every coefficient exact; ``compose`` truncates it to what each caller
        needs."""
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
    """Validate x-domain components and build an element; raises on any
    profile violation."""
    if m < 1:
        raise InvalidArgument("m must be a positive integer")
    f = tuple(f)
    if len(f) != m:
        raise InvalidArgument(f"expected {m} f-series, got {len(f)}")
    if order is None:
        order = g.order
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
    return new_element(m, Series.one(order), [x] * m, order)


def step_series(e: MRiordanElement) -> Series:
    """w = f_1 * ... * f_m = h^m; valuation m, block residue 0.  It is the
    compressed step series of the element, aerated back to the x-domain."""
    return aerate(e.what, e.m, 0, order=e.order)


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
    ghat = a.ghat * compose(b.ghat, a.what)
    fhats = tuple(fa * compose(fb, a.what) for fa, fb in zip(a.fhats, b.fhats))
    return MRiordanElement(a.m, ghat, fhats, a.order)


def inverse(e: MRiordanElement) -> MRiordanElement:
    """Group inverse: revert the compressed step series, then substitute.

    hbar^m as a function of x is wbar(x^m) with wbar = revert(what), so
    1/g(hbar) = 1/(ghat o wbar) and x*hbar/f_i(hbar) = x/(fhat_i o wbar).
    """
    wbar = revert(e.what)
    inv_ghat = compose(e.ghat, wbar).recip()
    inv_fhats = tuple(compose(fh, wbar).recip() for fh in e.fhats)
    return MRiordanElement(e.m, inv_ghat, inv_fhats, e.order)


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
    return replace(one, ghat=e.ghat), replace(one, fhats=e.fhats)
