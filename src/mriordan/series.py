"""Truncated formal power series with exact rational coefficients.

A ``Series`` holds coefficients 0..order and guarantees every stated
coefficient is exact.  Arithmetic truncates to the smaller operand order;
nothing is ever zero-extended implicitly, because an extended coefficient
would be a fabricated one.

A series is stored in one form only, its integer numerators over their
least common denominator (see :meth:`Series.scaled`), and every operation
runs on integers: a rational product is one int convolution and one
reduction, not a gcd per term.  An exact coefficient, an ``int`` or a
``Fraction`` whose denominator is not 1 (see :func:`exact_coeff`), is made
only where one is read: ``s[i]`` makes one, ``s.coeffs`` all of them.
A one-shot convolution is one call of ``_convolve``, which packs two
operands of small coefficients into one integer each and multiplies once
(Kronecker substitution) when the schoolbook loop would multiply at least
eight pairs of nonzero terms per output coefficient, and runs the loop
otherwise.  A chain of products, each the next one's operand (the power
tables of both substitution passes, and the matrix columns of
``group.to_matrix``), is one ``_product_chain``: it keeps the running
product packed in signed 64-bit slots between steps, packing and reading
slots through ``struct`` in O(n), while every slot provably fits, and
hands the rest of the chain to ``_convolve`` once one does not.  ``*``,
``recip``, the Miller power recurrence (every ``^``, and
``nth_root_unit``) and ``compose_many`` first find the sublattice
x^v (x^s)^j that their operands occupy (``_lattice``) and run on the
coefficients there, so a series in x^3, as the paper writes g, costs a
third of the coefficients and a ninth of the O(N^2) work; a series dense
from its first nonzero coefficient is recognised by that one and the
next.  ``compose`` and ``revert`` are the one-series cases of the two
substitution passes.  Coefficient division is always spelled
``exact_ratio(a, b)`` or ``Fraction(a, b)``: ``a / b`` on two ints would
yield a float.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add, mul
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


def exact_ratio(num: int, den: int) -> Coeff:
    """The exact coefficient num/den of two ints (den != 0)."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def scale(values: Sequence[Coeff]) -> tuple:
    """``(nums, den)``: integer numerators over the least common denominator
    of exact coefficients, so that ``values[i] == nums[i] / den``.  All-int
    input comes back as it is, with ``den == 1``."""
    if set(map(type, values)) <= {int}:
        return tuple(values), 1
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _at_least(n: int, low: int | None, what: str) -> int:
    """n itself, the package's one check of an integer argument: anything
    but an ``int`` (a ``bool`` too) is a ``TypeError``, one below low (unless
    None) an error, never a slice from the end or a division by zero."""
    if type(n) is not int:
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if low is not None and n < low:
        raise InvalidArgument(f"{what} must be >= {low}, got {n}")
    return n


class Series:
    """Immutable truncated power series over the rationals: the integer
    numerators ``_nums`` over ``_den >= 1``, with ``gcd(_den, *_nums) == 1``."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Coeff]):
        cs = tuple(coeffs)
        if not cs:
            raise InvalidArgument("a series needs at least the constant coefficient")
        nums, den = (cs, 1) if set(map(type, cs)) == {int} else scale(tuple(map(exact_coeff, cs)))
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _over(cls, nums: Sequence[int], den: int) -> "Series":
        """The series nums/den (den >= 1), reduced to its least common
        denominator: how every operation makes its result."""
        nums, den = _reduced(nums, den)
        s = object.__new__(cls)
        object.__setattr__(s, "_nums", tuple(nums))
        object.__setattr__(s, "_den", den)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: Coeff, order: int) -> "Series":
        return cls([value] + [0] * _at_least(order, 0, "order"))

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls([0, 1] + [0] * (_at_least(order, 1, "order") - 1))

    @classmethod
    def from_poly(cls, coeffs: Sequence[Coeff], order: int) -> "Series":
        """Polynomial coefficients, zero-padded or truncated to `order`."""
        cs = list(coeffs[: _at_least(order, 0, "order") + 1])
        cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The exact coefficients 0..order, each an ``int`` or a ``Fraction``
        whose denominator is not 1.  Each read builds a new tuple from the
        numerators; ``s[i]`` reads one coefficient."""
        return self[:]

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def __getitem__(self, n) -> Coeff:
        v, den = self._nums[n], self._den
        if den == 1:
            return v
        return tuple(exact_ratio(u, den) for u in v) if type(n) is slice else exact_ratio(v, den)

    def is_integral(self) -> bool:
        return self._den == 1

    def scaled(self) -> tuple:
        """``(nums, den)`` with ``coeffs[i] == nums[i] / den``, ``den`` the
        least common denominator: the stored form itself."""
        return self._nums, self._den

    def truncate(self, order: int) -> "Series":
        if _at_least(order, 0, "order") >= self.order:
            return self
        return Series._over(self._nums[: order + 1], self._den)

    def eq_through(self, other: "Series", order: int) -> bool:
        n = _at_least(order, 0, "order") + 1
        return self[:n] == other[:n]

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        shown = ", ".join(str(c) for c in self[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series([{shown}{tail}]; order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Series":
        other = _coerce(other, self.order)
        d = lcm(self._den, other._den)
        ka, kb = d // self._den, d // other._den
        return Series._over([u * ka + v * kb for u, v in zip(self._nums, other._nums)], d)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series._over([-v for v in self._nums], self._den)

    def __sub__(self, other) -> "Series":
        return self + -_coerce(other, self.order)

    def __rsub__(self, other) -> "Series":
        return _coerce(other, self.order) - self

    def __mul__(self, other) -> "Series":
        """x^va A(x^sa) * x^vb B(x^sb) = x^(va+vb) (A B)(x^s), s = gcd(sa, sb):
        one convolution of the operands' numerators on that sublattice."""
        if not isinstance(other, Series):
            c = exact_coeff(other)
            return Series._over([v * c.numerator for v in self._nums], self._den * c.denominator)
        n = min(self.order, other.order)
        a, da = self.scaled()
        b, db = other.scaled()
        (va, sa), (vb, sb) = _lattice(a), _lattice(b)
        v, s = va + vb, gcd(sa, sb) or n + 1  # two monomials make one
        conv = _convolve(a[va::s], b[vb::s], (n - v) // s)
        return Series._over(_spread(conv, s, n + 1, v), da * db)

    __rmul__ = __mul__

    def recip(self) -> "Series":
        """Multiplicative inverse by the standard recurrence
        [x^n](1/s) = -(1/s_0) sum_{k=1..n} s_k [x^(n-k)](1/s), run on the
        integer numerators u of s = u/d: the coefficients found so far are
        o/den over their least common denominator, and each next one is one
        integer dot product t, as -t/(u_0 den).  A series in x^s has its
        reciprocal in x^s, so the recurrence runs on u(x^s) alone."""
        full, d = self.scaled()
        c = full[0]
        if not c:
            raise DivisionByNonUnit("reciprocal of a series with zero constant term")
        s = _lattice(full)[1] or len(full)  # a constant: its one coefficient
        u = full[::s]
        terms = [(k, uk) for k, uk in enumerate(u) if k and uk]
        o, den = _extend([], 1, d, c)  # [x^0](1/s) = d/c
        for n in range(1, len(u)):
            t = 0
            for k, uk in terms:
                if k > n:
                    break
                t += uk * o[n - k]
            o, den = _extend(o, den, -t, c)
        return Series._over(_spread(o, s, len(full)), den)

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return self * Fraction(1, exact_coeff(other))
        return self * other.recip()

    def __rtruediv__(self, other) -> "Series":
        return _coerce(other, self.order) / self

    def __pow__(self, n: int) -> "Series":
        """s^n = x^(v n) w^n for s = x^v w, w_0 != 0: one ``_power`` call."""
        if type(n) is not int:
            raise TypeError("series exponents must be integers")
        if self._nums[0]:
            return _power(self, n, 1)
        if n < 0:
            raise DivisionByNonUnit("reciprocal of a series with zero constant term")
        if not n:
            return Series.one(self.order)
        v = next((i for i, c in enumerate(self._nums) if c), self.order + 1)
        if v * n > self.order:
            return Series.zero(self.order)
        w = Series._over(self._nums[v : self.order + 1 - v * (n - 1)], self._den)  # to x^(order - v n)
        return _power(w, n, 1).shift_up(v * n)

    # -- shifts --------------------------------------------------------

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by x^k exactly; order grows by k."""
        return Series._over((0,) * _at_least(k, 0, "k") + self._nums, self._den)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by x^k; requires valuation >= k.  Order shrinks by k."""
        _at_least(k, 0, "k")
        if any(self._nums[:k]):
            raise DivisionByNonUnit(f"valuation < {k}, cannot divide by x^{k}")
        if self.order < k:
            raise InvalidArgument("order too small for shift_down")
        return Series._over(self._nums[k:], self._den)


def _coerce(v, order: int) -> Series:
    if isinstance(v, Series):
        return v
    return Series.constant(v, order)


def _lattice(a: Sequence) -> tuple:
    """``(v, s)``: every nonzero a[i] sits at an index i = v + s*j, with s
    the largest such step, and s = 0 when a has at most one nonzero (and
    v = 0 when it has none).  A series dense from its first nonzero
    coefficient on is settled by that coefficient and the next, before any
    gcd: 74-85% of the calls of the benchmark's algebra workloads, where
    the others read at most eight coefficients.  In ``cli_session``, 595 of
    1155 calls read the whole series, 33.9k coefficients a pass."""
    for v, c in enumerate(a):
        if c:
            break
    else:
        return 0, 0
    if v + 1 < len(a) and a[v + 1]:
        return v, 1
    s = 0
    for i in range(v + 2, len(a)):
        if a[i]:
            s = gcd(s, i - v)
            if s == 1:
                break
    return v, s


def _spread(nums: Sequence, s: int, size: int, v: int = 0) -> Sequence:
    """x^v nums(x^s), nums a series in t = x^s, as `size` coefficients in x:
    nums[j] at index v + s*j, which must be every such index below size."""
    if s == 1 and not v:
        return nums
    out = [0] * size
    out[v::s] = nums
    return out


def _reduced(nums: list, den: int) -> tuple:
    """nums/den with the common factor of den and all of nums divided out,
    so that den is the least common denominator of the values."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _extend(o: list, den: int, num: int, div: int) -> tuple:
    """Append num/(div*den) to the values o/den, keeping den their least
    common denominator: the one division of a recurrence step."""
    whole = div * den
    grown = lcm(den, whole // gcd(num, whole))
    if grown != den:
        o = [v * (grown // den) for v in o]
    o.append(num * grown // whole)
    return o, grown


# Kronecker substitution is taken when the loop would multiply at least
# _PACK_WORK pairs of nonzero terms per output coefficient, and a slot needs
# at most _PACK_MAX_BITS; both bounds were measured on the grid (see README).
_PACK_WORK = 8
_PACK_MAX_BITS = 256


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list:
    """Coefficients 0..n (none for n < 0) of the product of two integer
    coefficient sequences.  Operands with enough work for the loop are each
    packed into one integer of w-bit slots, wide enough for any coefficient
    of the product, and multiplied once (Kronecker substitution).  Short or
    sparse operands, or a slot wider than the cap (as for the reversion's
    powers, whose largest coefficient is far wider than most), take the
    schoolbook loop, which skips zero terms."""
    if n + 1 >= _PACK_WORK:
        a, b = a[: n + 1], b[: n + 1]
        if _worth_packing(a, b, n):
            # |product coefficient| <= min(len) * max|a| * max|b| < 2^(w-1)
            w = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            w += min(len(a), len(b)).bit_length() + 1
            if w <= _PACK_MAX_BITS:
                p = (_pack(a, w) * _pack(b, w)) & ((1 << w * (n + 1)) - 1)
                full = 1 << w
                mask, half = full - 1, full >> 1
                out = []
                for _ in range(n + 1):
                    c = p & mask
                    p >>= w
                    if c >= half:  # a negative slot borrowed one from the next
                        c -= full
                        p += 1
                    out.append(c)
                return out
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(n - i + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _worth_packing(a: Sequence[int], b: Sequence[int], n: int) -> bool:
    """The work rule: the loop on a and b (each already cut to n + 1
    coefficients) would multiply at least _PACK_WORK pairs of nonzero
    terms per output coefficient."""
    return (len(a) - a.count(0)) * (len(b) - b.count(0)) >= _PACK_WORK * (n + 1)


def _pack(a: Sequence[int], w: int) -> int:
    """The integer sum of a[i] * 2^(w*i): a in signed slots of w bits."""
    p = 0
    for c in reversed(a):
        p = (p << w) + c
    return p


def _tops(n: int) -> int:
    """The integer with 2^63 in each of n 64-bit slots."""
    return int.from_bytes(b"\0\0\0\0\0\0\0\x80" * n, "little")


def _pack64(a: Sequence[int], tops: int) -> int:
    """The integer sum of a[i] * 2^(64*i) for |a[i]| < 2^63, in O(n): the
    slots as two's complement bytes, each read back signed by flipping its
    top bit and subtracting 2^63 (tops is ``_tops(n)`` for an n >= len(a))."""
    return (int.from_bytes(struct.pack(f"<{len(a)}q", *a), "little") ^ tops) - tops


def _product_chain(start: tuple, factors: Sequence[tuple], sizes: Sequence[int]):
    """Yield the truncated products start*f_0, start*f_0*f_1, ..., with f_k
    = factors[k % len(factors)], the k-th through sizes[k] coefficients
    (sizes must not grow), each as reduced ``(nums, den)``: one integer
    product and one reduction a step.

    While it can, the chain keeps its running product packed, as the one
    integer p = sum nums[i] * 2^(64*i) (Kronecker substitution), and a step
    is p * F mod 2^(64*size), F the packed factor cut to the size slots
    kept (p * F and p * (F mod 2^(64*size)) agree there).  A slot is exact
    when bits(max|nums|) + bits(sum|f|) < 64, since every product
    coefficient is at most max|nums| * sum|f| in size; only the values
    handed out are unpacked, and a gcd that reduces them divides p too.  A
    step that fails that bound, or on which ``_convolve``'s work rule would
    take the loop, is a ``_convolve``, and so is every later one: the
    lengths only shrink and the coefficients only widen."""
    nums, den = start
    top = sizes[0] if sizes else 0
    widths = [sum(map(abs, f[:top])).bit_length() for f, _ in factors]  # bits(sum|f|)
    p, packed, k = None, {}, 0  # the running product, and F by factor
    while k < len(sizes) and sizes[k] >= _PACK_WORK:  # shorter never passes the work rule
        size, i = sizes[k], k % len(factors)
        f, df = factors[i]
        a = nums[:size]
        if max(map(abs, a)).bit_length() + widths[i] > 63 or not _worth_packing(a, f[:size], size - 1):
            break
        tops, mask = _tops(size), (1 << 64 * size) - 1
        if i not in packed:
            packed[i] = _pack64(f[:top], _tops(top))
        r = ((_pack64(a, tops) if p is None else p) * (packed[i] & mask) + tops) & mask
        p = r - tops
        nums = struct.unpack(f"<{size}q", (r ^ tops).to_bytes(8 * size, "little"))
        g = gcd(den * df, *nums)
        if g > 1:
            nums, p = [v // g for v in nums], p // g
        den = den * df // g
        yield nums, den
        k += 1
    for k in range(k, len(sizes)):
        f, df = factors[k % len(factors)]
        nums, den = _reduced(_convolve(nums, f, sizes[k] - 1), den * df)
        yield nums, den


def _powers(base: tuple, count: int, n: int) -> list:
    """s^0..s^count through x^n, each as (nums, den), for s = nums/den
    given as `base`: one ``_product_chain`` of count - 1 steps."""
    return [([1] + [0] * n, 1), base, *_product_chain(base, [base], [n + 1] * (count - 1))]


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(x)), exact through min(orders); see ``compose_many``."""
    return compose_many([outer], inner)[0]


def compose_many(outers: Sequence[Series], inner: Series) -> list:
    """[H(inner(x)) for H in outers], each exact through min(H.order,
    inner.order), by baby steps and giant steps (Paterson & Stockmeyer;
    Brent & Kung, JACM 1978, section 2) on integer numerators.

    The powers inner^0..inner^k, k = isqrt(n + 1), are built once and shared
    by every outer.  Each block of k coefficients of an outer is one linear
    combination T_r of inner^0..inner^(k-1); Horner in inner^k then sums the
    T_r inner^(rk).  Since inner has valuation >= 1, T_r is only needed
    through order n - r*k, and coefficient n of a result only sees the first
    n+1 coefficients of either operand.

    An inner series in x^g (every nonzero index a multiple of g) is
    substituted as one in t = x^g, into the outers truncated to match, and
    each result is spread back onto x.
    """
    if inner._nums[0]:
        raise CompositionRequiresValuation(
            "composition requires the inner series to have zero constant term"
        )
    n = min(max(o.order for o in outers), inner.order)
    g = gcd(*_lattice(inner._nums)) or n + 1  # the zero series: g past n
    if g > 1:
        tops = [min(o.order, n) for o in outers]
        short = compose_many([o.truncate(top // g) for o, top in zip(outers, tops)],
                             Series._over(inner._nums[: n + 1 : g], inner._den))
        return [aerate(r, g, 0, order=top) for r, top in zip(short, tops)]
    k = isqrt(n + 1)
    pows = _powers(inner.scaled(), k, n)
    giant, dg = pows[k]
    giant = giant[k:]  # inner^k / x^k
    dt = lcm(*(d for _, d in pows[:k]))  # inner^j = baby[j]/dt for j < k
    baby = [p if d == dt else [v * (dt // d) for v in p] for p, d in pows[:k]]
    out = []
    for outer in outers:
        no = min(outer.order, n)
        c, dc = outer.scaled()
        acc, da = [], 1  # dc * (the blocks above r, over x^(rk)) is acc/da
        for lo in range(no - no % k, -1, -k):
            top = no - lo  # T_r is needed through x^top
            t = [0] * (top + 1)
            for j, cj in enumerate(c[lo : lo + min(k - 1, top) + 1]):
                if cj:
                    t[j:] = map(add, t[j:], map(mul, repeat(cj), baby[j][j : top + 1]))
            if acc:
                acc = [0] * k + _convolve(acc, giant, top - k)
                da *= dg
                d = lcm(da, dt)
                acc = [u * (d // da) + v * (d // dt) for u, v in zip(acc, t)]
                acc, da = _reduced(acc, d)
            else:
                acc, da = _reduced(t, dt)
        out.append(Series._over(acc, dc * da))
    return out


def revert(f: Series) -> Series:
    """Compositional inverse by Lagrange inversion: ``compose_reverted``
    with the outer series x, so [x^k] fbar = (1/k) [x^(k-1)] (x/f)^k."""
    return compose_reverted([Series.x(max(f.order, 1))], f)[0]


def compose_reverted(outers: Sequence[Series], f: Series) -> list:
    """[H(fbar(x)) for H in outers], with fbar the compositional inverse of
    f, each exact through min(H.order, f.order), by Lagrange-Burmann
    (Stanley, EC2 Thm 5.4.2): [x^n] H(fbar) = (1/n) [x^(n-1)] H'(x) q(x)^n
    with q = x/f, on integer numerators.

    The powers of q come in baby steps q^0..q^k and giant steps q^(a*k),
    built once and shared by every outer (Johansson, Math. Comp. 2015).
    With n = a*k + b, each output coefficient is then one dot product of
    H'q^b with q^(a*k), so an outer costs k - 1 series products.
    """
    if f._nums[0] or f.order < 1 or not f._nums[1]:
        raise NotRevertible("reversion requires valuation exactly 1")
    n = min(max(1, *(h.order for h in outers)), f.order)
    k = max(1, isqrt(n // (len(outers) + 1)))
    q = Series._over(f._nums[1 : n + 1], f._den).recip()  # x/f, exact through x^(n-1)
    baby = _powers(q.scaled(), k, n - 1)  # q^b
    giant = _powers(baby[k], n // k, n - 1)  # q^(a*k)
    out = []
    for h in outers:
        c, dh = h.scaled()
        nh = min(h.order, n)
        dc = [i * c[i] for i in range(1, nh + 1)]  # H' = dc/dh through x^(nh-1)
        steps = [(dc, dh)] + [
            _reduced(_convolve(dc, p, nh - 1), dh * dp) for p, dp in baby[1 : min(k, nh + 1)]
        ]
        vals = [exact_ratio(c[0], dh)]
        for j in range(1, nh + 1):
            (hb, db), (g, dg) = steps[j % k], giant[j // k]
            vals.append(exact_ratio(sum(map(mul, hb[:j], g[j - 1 :: -1])), j * db * dg))
        out.append(Series(vals))
    return out


def nth_root_unit(u: Series, m: int) -> Series:
    """The unique v with v^m = u and v(0) = 1."""
    _at_least(m, 1, "m")
    if u._nums[0] != u._den:
        raise RootRequiresUnitConstant("m-th root requires constant term 1")
    return _power(u, 1, m)


def _power(u: Series, p: int, q: int) -> Series:
    """v = u^(p/q) for u_0 != 0 (u_0 = 1 when q > 1), by J. C. P. Miller's
    power recurrence (Knuth, TAOCP vol. 2, 4.7), O(N^2) whatever the size
    of p: q*n*u_0*v_n = sum_{k=1..n} ((p+q)*k - q*n) * u_k * v_{n-k}, run
    like ``recip`` on the integer numerators a of u = a/d, in t = x^s when u
    is a series in x^s.
    """
    full, d = u.scaled()
    s = _lattice(full)[1] or len(full)
    a = full[::s]
    c = a[0]
    terms = [(k, ak) for k, ak in enumerate(a) if k and ak]
    num, div = (c, d) if p >= 0 else (d, c)
    o, den = _extend([], 1, num ** abs(p), div ** abs(p))  # u_0^p, 1 when q > 1
    for n in range(1, len(a)):
        t = 0
        for k, ak in terms:
            if k > n:
                break
            t += ((p + q) * k - q * n) * ak * o[n - k]
        o, den = _extend(o, den, t, q * n * c)
    return Series._over(_spread(o, s, len(full)), den)


def sqrt_unit(u: Series) -> Series:
    return nth_root_unit(u, 2)


def aerate(s: Series, m: int, shift: int = 0, order: int | None = None) -> Series:
    """Spread s onto the arithmetic progression m*n + shift.

    The natural order is m*s.order + shift.  A larger `order` may be
    requested up to m*(s.order+1) + shift - 1: those extra indices fall
    strictly between occupied slots, so their zeros are exact.
    """
    _at_least(m, 1, "m")
    _at_least(shift, 0, "shift")
    order = m * s.order + shift if order is None else _at_least(order, 0, "order")
    if order > m * (s.order + 1) + shift - 1:
        raise InvalidArgument("requested order exceeds what the source determines")
    return Series._over(_spread(s._nums[: len(range(shift, order + 1, m))], m, order + 1, shift), s._den)


def check_block_profile(s: Series, m: int, residue: int) -> None:
    """Raise unless every nonzero coefficient sits at an index of the form
    m*n + residue with n >= 0.  (The index >= residue clause matters for
    m = 1, where the residue class alone excludes nothing.)"""
    for i, c in enumerate(s._nums):
        if c and ((i - residue) % m != 0 or i < residue):
            raise BlockProfileViolation(
                f"coefficient at index {i} violates residue {residue} (mod {m})",
                index=i,
            )


def compress(s: Series, m: int, residue: int) -> Series:
    """Inverse of aerate: keep the coefficients at indices m*n + residue."""
    _at_least(m, 1, "m")
    if _at_least(residue, 0, "residue") > s.order:
        raise InvalidArgument(f"residue {residue} exceeds the order {s.order}")
    check_block_profile(s, m, residue)
    return Series._over(s._nums[residue::m], s._den)


def catalan_series(order: int) -> Series:
    """Catalan-number generating function, by C_(n+1) = C_n (4n+2)/(n+2),
    one step a coefficient.  The division is exact: C_n (4n+2) =
    (n+2) C_(n+1), so every coefficient is an int."""
    c = [1]
    for n in range(_at_least(order, 0, "order")):
        c.append(c[-1] * (4 * n + 2) // (n + 2))
    return Series(c)
