"""Derived sequences and transforms: row sums, diagonal sums, the
bivariate table, Hankel transforms, interleavings."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import OrderTooSmall
from .group import MRiordanElement, step_series
from .series import Coeff, Series, exact_coeff


def _prefix_products(e: MRiordanElement) -> list:
    """[1, f_1, f_1*f_2, ..., f_1*...*f_{m-1}] at the element's order."""
    out = [Series.one(e.order)]
    for fi in e.f[: e.m - 1]:
        out.append(out[-1] * fi)
    return out


def row_sums(e: MRiordanElement, terms: int) -> list:
    """Row sums via the closed generating function
    g * (1 + f_1 + f_1 f_2 + ...) / (1 - f_1...f_m)."""
    if terms > e.order + 1:
        raise OrderTooSmall(f"{terms} terms need order >= {terms - 1}")
    num = e.g * sum(_prefix_products(e), Series.zero(e.order))
    den = 1 - step_series(e)
    return list((num / den).coeffs[:terms])


def diagonal_sums(e: MRiordanElement, terms: int) -> list:
    """Diagonal sums sum_k a_{n-k,k} via the y -> x substitution in the
    bivariate generating function."""
    if terms > e.order + 1:
        raise OrderTooSmall(f"{terms} terms need order >= {terms - 1}")
    n = e.order
    num = Series.zero(n)
    for j, p in enumerate(_prefix_products(e)):
        num = num + (e.g * p).shift_up(j).truncate(n)
    den = 1 - step_series(e).shift_up(e.m).truncate(n)
    return list((num / den).coeffs[:terms])


def bivariate_table(e: MRiordanElement, rows: int) -> list:
    """Rows of the bivariate expansion: row n is the coefficient list (over
    powers of y) of [x^n] in g*(sum_j y^j f_1..f_j)/(1 - y^m f_1..f_m).

    Expanding the geometric series in y^m*w gives column k = j + m*r the
    generating function g * (f_1..f_j) * w^r, an expansion path independent
    of the incremental column products used by ``to_matrix``.
    """
    if rows > e.order + 1:
        raise OrderTooSmall(f"{rows} rows need order >= {rows - 1}")
    w = step_series(e)
    prefixes = [e.g * p for p in _prefix_products(e)]
    cols = []
    wpow = Series.one(e.order)
    for r in range(rows // e.m + 1):
        for j in range(e.m):
            cols.append(prefixes[j] * wpow)
        wpow = wpow * w
    return [[cols[k][n] for k in range(n + 1)] for n in range(rows)]


# -- Hankel transform ----------------------------------------------------


def bareiss_determinant(rows: Sequence[Sequence]) -> Coeff:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every division is exact, so integer input stays in ints throughout;
    rational input runs the same steps on ``Fraction`` entries.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_coeff(Fraction(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev))
        prev = a[k][k]
    return exact_coeff(sign * a[n - 1][n - 1])


def hankel_transform(seq: Sequence) -> list:
    """Term n is det [s_{i+j}] for 0 <= i,j <= n; ceil(L/2) terms."""
    length = len(seq)
    count = (length + 1) // 2
    out = []
    for n in range(count):
        mat = [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]
        out.append(bareiss_determinant(mat))
    return out


def interleave_split(seq: Sequence, m: int) -> list:
    """Slot j holds the terms at indices congruent to j mod m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return [list(seq[j::m]) for j in range(m)]
