"""Independent reference implementations the tests cross-check against.

None of these is used by the package itself: each recomputes a result of
the shipped engine by a different route (term-by-term ``Fraction``
kernels, the aerated x-domain engine, an explicit m-th root, the bivariate
expansion, cofactor expansion, literal matrix sums, the lattice recurrence
entry by entry, pairwise expression sums).
"""

from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from mriordan.errors import EvaluationError, MRiordanError, UnknownIdentifier
from mriordan.expressions import _BINARY, Bin, Call, Neg, Node, Num, Pow, Var
from mriordan.group import CoeffMatrix, MRiordanElement, _check_compatible, new_element, to_matrix
from mriordan.lattice import LatticeSpec
from mriordan.series import Series, aerate, compose, compress, exact_coeff, nth_root_unit, revert, sqrt_unit


# -- Fraction-only kernels ---------------------------------------------------
#
# Every term is a Fraction operation, with no common denominator and no
# integer fast path; results are normalised to the one coefficient
# representation only at the end.


def convolve_direct(a: Sequence[int], b: Sequence[int], n: int) -> list:
    """Coefficients 0..n of the product of two integer sequences, by the
    definition c_k = sum_{i+j=k} a_i b_j."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def series_mul_direct(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    return Series(
        [sum((Fraction(a[i]) * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]
    )


def recip_direct(s: Series) -> Series:
    """1/s by the recurrence on Fractions."""
    inv0 = 1 / Fraction(s[0])
    out = [inv0]
    for n in range(1, s.order + 1):
        out.append(-inv0 * sum((Fraction(s[k]) * out[n - k] for k in range(1, n + 1)), Fraction(0)))
    return Series(out)


def power_direct(s: Series, p: int, q: int = 1) -> Series:
    """s^(p/q).  For q = 1: |p| products of series_mul_direct, and recip_direct
    for p < 0.  For q > 1 (s_0 = 1): the binomial series
    sum_j binom(p/q, j) (s - 1)^j, which ends at j = order."""
    if q == 1:
        out = Series([Fraction(1)] + [0] * s.order)
        for _ in range(abs(p)):
            out = series_mul_direct(out, s)
        return recip_direct(out) if p < 0 else out
    r = Fraction(p, q)
    t = s - 1
    term, binom = Series.one(s.order), Fraction(1)
    out = Series.zero(s.order)
    for j in range(s.order + 1):
        out = out + term * binom
        term = series_mul_direct(term, t)
        binom = binom * (r - j) / (j + 1)
    return out


def catalan_direct(order: int) -> Series:
    """The Catalan numbers by the convolution recurrence C_(n+1) = sum C_i C_(n-i)."""
    c = [1]
    for n in range(order):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return Series(c)


def compose_direct(outer: Series, inner: Series) -> Series:
    """Horner evaluation over series_mul_direct."""
    n = min(outer.order, inner.order)
    acc = Series.zero(n)
    for c in reversed(outer.coeffs[: n + 1]):
        acc = series_mul_direct(acc, inner) + c
    return acc


def revert_direct(f: Series) -> Series:
    """Solve f(r) = x coefficient by coefficient, with compose_direct."""
    order = f.order
    r = Series.from_poly([0, 1 / Fraction(f[1])], order)
    for n in range(2, order + 1):
        err = compose_direct(f.truncate(n), r.truncate(n))[n]
        coeffs = list(r.coeffs)
        coeffs[n] = -err / Fraction(f[1])
        r = Series(coeffs)
    return r


def matmul_direct(a: CoeffMatrix, b: CoeffMatrix) -> CoeffMatrix:
    """The full matrix product, every term a Fraction product."""
    size = a.rows
    entries = tuple(
        tuple(
            exact_coeff(sum((Fraction(a[n, i]) * b[i, k] for i in range(size)), Fraction(0)))
            for k in range(size)
        )
        for n in range(size)
    )
    return CoeffMatrix(size, entries)


# -- direct (aerated, x-domain) engine ------------------------------------


def step_product(e: MRiordanElement) -> Series:
    """w = f_1 * ... * f_m multiplied out in the x-domain at full order."""
    w = e.f[0]
    for fi in e.f[1:]:
        w = w * fi
    return w


def step_series_root(e: MRiordanElement) -> Series:
    """Display-only h = (f_1...f_m)^{1/m}; needs (f_1)_1*...*(f_m)_1 = 1."""
    u = step_product(e).shift_down(e.m)
    return nth_root_unit(u, e.m).shift_up(1)


def _eval_block(coeffs: Sequence, w: Series, order: int) -> Series:
    """sum_k coeffs[k] * w^k at the given order (Horner over w)."""
    acc = Series.zero(order)
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def product_direct(a: MRiordanElement, b: MRiordanElement) -> MRiordanElement:
    """Same product, evaluated in the x-domain over w = h^m."""
    _check_compatible(a, b)
    n = a.order
    w = step_product(a)
    g = a.g * _eval_block(compress(b.g, a.m, 0).coeffs, w, n)
    f = [
        fa * _eval_block(compress(fb, a.m, 1).coeffs, w, n)
        for fa, fb in zip(a.f, b.f)
    ]
    return new_element(a.m, g, f, n)


def inverse_direct(e: MRiordanElement) -> MRiordanElement:
    """Same inverse, evaluated in the x-domain: Horner substitution of the
    aerated hbar^m.  The reversion is shared with the engine: ``revert`` is
    the Lagrange-Burmann pass that ``inverse`` runs, so only the
    substitutions here are independent.  ``revert`` is checked against
    ``revert_direct`` on its own; calling that here would cost O(N^4)
    ``Fraction`` work per inverse."""
    n = e.order
    w = step_product(e)
    # below order m, hbar^m (valuation m) is zero at every stated order
    wbar = revert(compress(w, e.m, 0).truncate(n // e.m)) if n >= e.m else Series.zero(0)
    hbar_m = aerate(wbar, e.m, 0, order=n)  # hbar^m as an x-series
    g = _eval_block(compress(e.g, e.m, 0).coeffs, hbar_m, n).recip()
    f = [
        _eval_block(compress(fi, e.m, 1).coeffs, hbar_m, n - 1)
        .recip()
        .shift_up(1)
        for fi in e.f
    ]
    return new_element(e.m, g, f, n)


def product_via_root(a: MRiordanElement, b: MRiordanElement) -> MRiordanElement:
    """Product through an explicit h; only valid when h has rational
    coefficients (leading step coefficient 1).  Pure test oracle.

    h is exact only through order N-m+1, so the result is returned at
    that reduced order rather than padded.  It substitutes with
    ``compose_direct``, so it shares no composition code with the engine.
    """
    _check_compatible(a, b)
    h = step_series_root(a)
    g = a.g * compose_direct(b.g, h)
    f = [fa * compose_direct(fb.shift_down(1), h) for fa, fb in zip(a.f, b.f)]
    n = min([g.order] + [fi.order for fi in f])
    return new_element(a.m, g.truncate(n), [fi.truncate(n) for fi in f], n)


# -- derived sequences -----------------------------------------------------


def bivariate_expansion(e: MRiordanElement, rows: int) -> list:
    """Rows of g*(sum_j y^j f_1..f_j)/(1 - y^m w) expanded as a geometric
    series in y^m*w: column k = j + m*r has the generating function
    g * (f_1..f_j) * w^r, a route independent of the incremental column
    products of ``to_matrix``.  Row n lists columns 0..n."""
    prefixes = [e.g]
    for fi in e.f[: e.m - 1]:
        prefixes.append(prefixes[-1] * fi)
    w = step_product(e)
    cols = []
    wpow = Series.one(e.order)
    for r in range(rows // e.m + 1):
        cols += [p * wpow for p in prefixes]
        wpow = wpow * w
    return [[cols[k][n] for k in range(n + 1)] for n in range(rows)]


def matrix_row_sums(e: MRiordanElement, terms: int) -> list:
    """Row sums by literally summing matrix rows; cross-check path."""
    return to_matrix(e, terms).row_sums()


def matrix_diagonal_sums(e: MRiordanElement, terms: int) -> list:
    """sum_k a_{n-k,k} straight off the matrix; cross-check path."""
    mat = to_matrix(e, terms)
    return [
        sum(mat[n - k, k] for k in range(n // 2 + 1)) for n in range(terms)
    ]


def naive_determinant(rows: Sequence[Sequence]) -> Fraction:
    """Cofactor expansion along the first row.  The minor on the rows below
    row i and a set of columns is expanded once and cached, so an n x n
    matrix costs O(n·2^n) products instead of n!: an oracle for matrices of
    up to about 12 rows."""
    n = len(rows)

    @cache
    def minor(cols: tuple):
        if not cols:
            return 1
        row = rows[n - len(cols)]
        total = 0
        for pos, j in enumerate(cols):
            if row[j]:
                term = row[j] * minor(cols[:pos] + cols[pos + 1 :])
                total += -term if pos % 2 else term
        return total

    return Fraction(minor(tuple(range(n))))


def interleave(slots: Sequence[Sequence]) -> list:
    """Inverse of interleave_split (up to trailing-length bookkeeping)."""
    m = len(slots)
    total = sum(len(s) for s in slots)
    out = []
    for n in range(total):
        out.append(slots[n % m][n // m])
    return out


def count_table_direct(spec: LatticeSpec, rows: int) -> CoeffMatrix:
    """The lattice table filled entry by entry, each source bounds-checked."""
    t = [[0] * rows for _ in range(rows)]
    t[0][0] = 1
    for n in range(1, rows):
        for k in range(n + 1):
            acc = 0
            for dn, dk in spec.rules[k % spec.m]:
                sn, sk = n - dn, k - dk
                if sn >= 0 and 0 <= sk <= sn:
                    acc += t[sn][sk]
            t[n][k] = acc
    return CoeffMatrix(rows, t)


# -- expressions -------------------------------------------------------------


def evaluate_direct(node: Node, bindings: Mapping[str, Series], order: int) -> Series:
    """``expressions.evaluate`` with every chain, sums included, evaluated
    pairwise from the left: each operand a Series, each step one Series
    operation, its error wrapped at the operator."""
    if isinstance(node, Num):
        return Series.constant(node.value, order)
    if isinstance(node, Var):
        if node.name == "x":
            if order < 1:
                raise EvaluationError("x needs order >= 1", node.pos)
            return Series.x(order)
        if node.name in bindings:
            return bindings[node.name].truncate(order)
        raise UnknownIdentifier(node.name, node.pos)
    if isinstance(node, Neg):
        return -evaluate_direct(node.arg, bindings, order)
    if isinstance(node, Bin):
        chain = []
        while isinstance(node, Bin):
            chain.append(node)
            node = node.left
        acc = evaluate_direct(node, bindings, order)
        for link in reversed(chain):
            rhs = evaluate_direct(link.right, bindings, order)
            try:
                acc = _BINARY[link.op](acc, rhs)
            except MRiordanError as exc:
                raise EvaluationError(str(exc), link.pos, cause=exc)
        return acc
    if isinstance(node, Pow):
        base = evaluate_direct(node.base, bindings, order)
        if node.exponent < 0 and not base[0]:
            raise EvaluationError("negative exponent needs a unit constant term", node.pos)
        return base**node.exponent
    if isinstance(node, Call):
        arg = evaluate_direct(node.arg, bindings, order)
        try:
            if node.func == "catalan":
                return compose(catalan_direct(order), arg)
            return sqrt_unit(arg)
        except MRiordanError as exc:
            raise EvaluationError(str(exc), node.pos, cause=exc)
    raise TypeError(f"not an expression node: {node!r}")
