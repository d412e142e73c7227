"""Derived sequences and transforms: row sums, diagonal sums, the
bivariate table, Hankel transforms, interleavings."""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from typing import Sequence

from .errors import InvalidArgument, OrderTooSmall
from .group import MRiordanElement, to_matrix
from .series import Coeff, Series, exact_coeff, exact_ratio, scale


def row_sums(e: MRiordanElement, terms: int) -> list:
    """Row sums: the bivariate generating function at y = 1."""
    return _sums_along(e, terms, 0)


def diagonal_sums(e: MRiordanElement, terms: int) -> list:
    """Diagonal sums sum_k a_{n-k,k}: the bivariate generating function at
    y = x."""
    return _sums_along(e, terms, 1)


def _sums_along(e: MRiordanElement, terms: int, s: int) -> list:
    """The bivariate generating function sum_k y^k x^k C_k(x^m) at y = x^s.
    Column j + m*r is column j times what(x^m)^r, so with t = x^m this is
    sum_{j<m} x^((s+1)j) C_j(x^m) / (1 - t^s what)(x^m).  Term j, with
    (s+1)j = a*m + r, adds t^a C_j/(1 - t^s what) to slot r; output term i
    is coefficient i//m of slot i mod m."""
    if terms < 1:
        raise InvalidArgument("terms must be >= 1")
    if terms > e.order + 1:
        raise OrderTooSmall(f"{terms} terms need order >= {terms - 1}")
    m, n = e.m, e.order
    slots = [Series.zero(max(n - r, 0) // m) for r in range(m)]  # slot r > n is never read
    first = e.ghat * (1 - e.what.shift_up(s).truncate(n // m)).recip()
    for j, col in enumerate(accumulate(e.fhats[: m - 1], Series.__mul__, initial=first)):
        a, r = divmod((s + 1) * j, m)
        slots[r] = slots[r] + col.shift_up(a)
    return [slots[i % m][i // m] for i in range(terms)]


def bivariate_table(e: MRiordanElement, rows: int) -> list:
    """Rows of the bivariate expansion: row n is the coefficient list (over
    powers of y) of [x^n] in g*(sum_j y^j f_1..f_j)/(1 - y^m f_1..f_m),
    that is, row n of the element's matrix through the diagonal."""
    mat = to_matrix(e, rows)
    return [list(row[: n + 1]) for n, row in enumerate(mat.entries)]


# -- Hankel transform ----------------------------------------------------


def _eliminate(a: list, k: int, prev: int) -> None:
    """One fraction-free (Bareiss) step on the square int matrix `a`, in
    place: with pivot a[k][k] and the step's previous pivot `prev`, each
    entry below and right of the pivot becomes a minor of order k + 2
    (scaled alike), exactly divisible by `prev`.  Without row exchanges the
    pivot of step k is the leading principal minor of order k + 1."""
    n = len(a)
    pivot, top = a[k][k], a[k]
    for i in range(k + 1, n):
        ai = a[i]
        aik = ai[k]
        for j in range(k + 1, n):
            ai[j] = (ai[j] * pivot - aik * top[j]) // prev


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
        _eliminate(a, k, prev)
        prev = a[k][k]
    return exact_ratio(sign * a[n - 1][n - 1], den**n)


def hankel_transform(seq: Sequence) -> list:
    """Term n is det [s_{i+j}] for 0 <= i,j <= n; ceil(L/2) terms.

    The terms are the leading principal minors of the largest Hankel
    matrix, so one elimination without row exchanges yields them all as
    its pivots, on the terms scaled once by the lcm D of their denominators:
    term n is pivot_n / D^(n+1).  From the first zero pivot on, which
    would need a row exchange, each term is its own determinant."""
    count = (len(seq) + 1) // 2
    if not count:
        return []
    nums, den = scale([exact_coeff(seq[i]) for i in range(2 * count - 1)])
    a = [list(nums[i : i + count]) for i in range(count)]
    out = []
    prev = 1
    for n in range(count):
        pivot = a[n][n]
        if not pivot:
            break
        out.append(exact_ratio(pivot, den ** (n + 1)))
        _eliminate(a, n, prev)
        prev = pivot
    for n in range(len(out), count):
        out.append(bareiss_determinant([[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]))
    return out


def interleave_split(seq: Sequence, m: int) -> list:
    """Slot j holds the terms at indices congruent to j mod m."""
    if m < 1:
        raise InvalidArgument("m must be >= 1")
    return [list(seq[j::m]) for j in range(m)]
