"""Derived sequences and transforms: row sums, diagonal sums, the
bivariate table, Hankel transforms, interleavings."""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .errors import InvalidArgument, OrderTooSmall
from .group import MRiordanElement, column_gfs, step_series, to_matrix
from .series import Coeff, Series, exact_coeff, exact_ratio


def row_sums(e: MRiordanElement, terms: int) -> list:
    """Row sums: the bivariate generating function at y = 1."""
    return _sums_along(e, terms, 0)


def diagonal_sums(e: MRiordanElement, terms: int) -> list:
    """Diagonal sums sum_k a_{n-k,k}: the bivariate generating function at
    y = x."""
    return _sums_along(e, terms, 1)


def _sums_along(e: MRiordanElement, terms: int, s: int) -> list:
    """The bivariate generating function sum_k y^k col_k at y = x^s.  Every
    column from the m-th on repeats one of the first m times a power of the
    step series w, so it is (sum_{j<m} y^j col_j) / (1 - y^m w)."""
    if terms > e.order + 1:
        raise OrderTooSmall(f"{terms} terms need order >= {terms - 1}")
    n = e.order
    num = Series.zero(n)
    for j, col in enumerate(column_gfs(e.g, e.f, e.m)):
        num = num + col.shift_up(s * j).truncate(n)
    den = 1 - step_series(e).shift_up(s * e.m).truncate(n)
    return list((num / den).coeffs[:terms])


def bivariate_table(e: MRiordanElement, rows: int) -> list:
    """Rows of the bivariate expansion: row n is the coefficient list (over
    powers of y) of [x^n] in g*(sum_j y^j f_1..f_j)/(1 - y^m f_1..f_m),
    that is, row n of the element's matrix through the diagonal."""
    mat = to_matrix(e, rows)
    return [list(row[: n + 1]) for n, row in enumerate(mat.entries)]


# -- Hankel transform ----------------------------------------------------


def bareiss_determinant(rows: Sequence[Sequence]) -> Coeff:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The matrix is scaled once by the least common denominator D of its
    entries, so every step runs on ints and every division is an exact
    ``//``; the determinant is det(D*A) / D^n.
    """
    n = len(rows)
    if n == 0:
        return 1
    den = lcm(*(exact_coeff(v).denominator for row in rows for v in row))
    a = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
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
        pivot, top = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pivot - aik * top[j]) // prev
        prev = pivot
    return exact_ratio(sign * a[n - 1][n - 1], den**n)


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
        raise InvalidArgument("m must be >= 1")
    return [list(seq[j::m]) for j in range(m)]
