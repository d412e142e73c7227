"""Truncated formal power series with exact rational coefficients.

A ``Series`` holds coefficients 0..order and guarantees every stated
coefficient is exact.  Arithmetic truncates to the smaller operand order;
nothing is ever zero-extended implicitly, because an extended coefficient
would be a fabricated one.

Every coefficient is an ``int`` or a ``Fraction`` whose denominator is not
1 (see :func:`exact_coeff`), so integral data runs on plain int arithmetic
and rational data falls back to ``Fraction`` without any conversion step.
Coefficient division is always spelled ``Fraction(a, b)``: ``a / b`` on two
ints would yield a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    BlockProfileViolation,
    CompositionRequiresValuation,
    DivisionByNonUnit,
    InvalidArgument,
    NotRevertible,
    RootRequiresUnitConstant,
)

Coeff = Union[int, Fraction]


def exact_coeff(v) -> Coeff:
    """The one coefficient representation: an ``int``, or a ``Fraction``
    whose denominator is not 1.  Anything else (float, Decimal, ...) is a
    ``TypeError``, never a silent conversion."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"series coefficients must be int or Fraction, got {type(v).__name__}")


class Series:
    """Immutable truncated power series over the rationals."""

    __slots__ = ("coeffs",)

    coeffs: tuple

    def __init__(self, coeffs: Iterable[Coeff]):
        cs = tuple(map(exact_coeff, coeffs))
        if not cs:
            raise InvalidArgument("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: Coeff, order: int) -> "Series":
        return cls([value] + [0] * order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "Series":
        if order < 1:
            raise InvalidArgument("x needs order >= 1")
        return cls([0, 1] + [0] * (order - 1))

    @classmethod
    def from_poly(cls, coeffs: Sequence[Coeff], order: int) -> "Series":
        """Polynomial coefficients, zero-padded or truncated to `order`."""
        cs = list(coeffs[: order + 1])
        cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Coeff:
        return self.coeffs[n]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def eq_through(self, other: "Series", order: int) -> bool:
        return self.coeffs[: order + 1] == other.coeffs[: order + 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}]; order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Series":
        other = _coerce(other, self.order)
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __sub__(self, other) -> "Series":
        other = _coerce(other, self.order)
        n = min(self.order, other.order)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __rsub__(self, other) -> "Series":
        return _coerce(other, self.order) - self

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(n - i + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return Series(out)

    __rmul__ = __mul__

    def recip(self) -> "Series":
        """Multiplicative inverse via the standard recurrence."""
        b0 = self.coeffs[0]
        if not b0:
            raise DivisionByNonUnit("reciprocal of a series with zero constant term")
        inv0 = exact_coeff(Fraction(1, b0))
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = 0
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    acc += self.coeffs[k] * out[n - k]
            out.append(-inv0 * acc)
        return Series(out)

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError
            return Series([Fraction(c, other) for c in self.coeffs])
        return self * other.recip()

    def __rtruediv__(self, other) -> "Series":
        return _coerce(other, self.order) / self

    def __pow__(self, n: int) -> "Series":
        if not isinstance(n, int):
            raise TypeError("series exponents must be integers")
        if n < 0:
            return self.recip() ** (-n)
        result = Series.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- shifts --------------------------------------------------------

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by x^k exactly; order grows by k."""
        return Series((0,) * k + self.coeffs)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by x^k; requires valuation >= k.  Order shrinks by k."""
        if any(self.coeffs[i] for i in range(min(k, self.order + 1))):
            raise DivisionByNonUnit(f"valuation < {k}, cannot divide by x^{k}")
        if self.order < k:
            raise InvalidArgument("order too small for shift_down")
        return Series(self.coeffs[k:])


def _coerce(v, order: int) -> Series:
    if isinstance(v, Series):
        return v
    return Series.constant(v, order)


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(x)), exact through min(orders).

    Horner evaluation: since inner has valuation >= 1, coefficient n of the
    result only sees the first n+1 coefficients of either operand.
    """
    if inner.coeffs[0]:
        raise CompositionRequiresValuation(
            "composition requires the inner series to have zero constant term"
        )
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = Series.zero(n)
    for c in reversed(outer.coeffs[: n + 1]):
        acc = acc * inner + c
    return acc


def revert(f: Series) -> Series:
    """Compositional inverse by Lagrange inversion, O(N^3):
    [x^k] fbar = (1/k) [x^{k-1}] (x/f)^k.
    """
    if f.coeffs[0] or f.order < 1 or not f.coeffs[1]:
        raise NotRevertible("reversion requires valuation exactly 1")
    q = Series(f.coeffs[1:]).recip()  # x/f, exact through order N-1
    out = [0, q[0]]
    p = q
    for k in range(2, f.order + 1):
        p = p * q
        out.append(Fraction(p[k - 1], k))
    return Series(out)


def nth_root_unit(u: Series, m: int) -> Series:
    """The unique v with v^m = u and v(0) = 1, by J. C. P. Miller's power
    recurrence (Knuth, TAOCP vol. 2, 4.7), O(N^2):
    m*n*v_n = sum_{k=1..n} ((m+1)*k - m*n) * u_k * v_{n-k}.
    """
    if m < 1:
        raise InvalidArgument("root index must be positive")
    if u.coeffs[0] != 1:
        raise RootRequiresUnitConstant("m-th root requires constant term 1")
    uc = u.coeffs
    v = [1]
    for n in range(1, len(uc)):
        acc = 0
        for k in range(1, n + 1):
            if uc[k]:
                acc += ((m + 1) * k - m * n) * uc[k] * v[n - k]
        v.append(exact_coeff(Fraction(acc, m * n)))
    return Series(v)


def sqrt_unit(u: Series) -> Series:
    return nth_root_unit(u, 2)


def aerate(s: Series, m: int, shift: int = 0, order: int | None = None) -> Series:
    """Spread s onto the arithmetic progression m*n + shift.

    The natural order is m*s.order + shift.  A larger `order` may be
    requested up to m*(s.order+1) + shift - 1: those extra indices fall
    strictly between occupied slots, so their zeros are exact.
    """
    if m < 1 or shift < 0:
        raise InvalidArgument("aerate needs m >= 1 and shift >= 0")
    natural = m * s.order + shift
    if order is None:
        order = natural
    if order > m * (s.order + 1) + shift - 1:
        raise InvalidArgument("requested order exceeds what the source determines")
    out = [0] * (order + 1)
    for i, c in enumerate(s.coeffs):
        idx = m * i + shift
        if idx > order:
            break
        out[idx] = c
    return Series(out)


def check_block_profile(s: Series, m: int, residue: int) -> None:
    """Raise unless every nonzero coefficient sits at an index of the form
    m*n + residue with n >= 0.  (The index >= residue clause matters for
    m = 1, where the residue class alone excludes nothing.)"""
    for i, c in enumerate(s.coeffs):
        if c and ((i - residue) % m != 0 or i < residue):
            raise BlockProfileViolation(
                f"coefficient at index {i} violates residue {residue} (mod {m})",
                index=i,
            )


def compress(s: Series, m: int, residue: int) -> Series:
    """Inverse of aerate: keep the coefficients at indices m*n + residue."""
    check_block_profile(s, m, residue)
    return Series([s.coeffs[i] for i in range(residue, s.order + 1, m)])


def catalan_series(order: int) -> Series:
    """Catalan-number generating function, built from the convolution
    recurrence C_{n+1} = sum C_i C_{n-i} so every coefficient stays an
    integer."""
    c = [1]
    for n in range(order):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return Series(c)
