import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mriordan import (
    BlockProfileViolation,
    CompositionRequiresValuation,
    DivisionByNonUnit,
    InvalidArgument,
    NotRevertible,
    RootRequiresUnitConstant,
    Series,
    aerate,
    catalan_series,
    compose,
    compress,
    evaluate_text,
    nth_root_unit,
    revert,
    sqrt_unit,
)
from mriordan import series
from mriordan.series import compose_many, compose_reverted

from conftest import exact_coeffs, exact_lists, int_coeffs, leading_coeffs, rational_coeffs, typed
from oracles import (
    catalan_direct,
    compose_direct,
    convolve_direct,
    power_direct,
    recip_direct,
    revert_direct,
    series_mul_direct,
)

N = 12

coeff_lists = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=4, max_size=10
)


def geometric(order):
    return Series([1] * (order + 1))  # 1/(1-x)


def test_mul_reciprocal_pair():
    one = geometric(N) * Series.from_poly([1, -1], N)
    assert one == Series.one(N)


def test_div_fibonacci():
    q = Series.one(N) / Series.from_poly([1, -1, -1], N)
    assert list(q.coeffs) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
    # independent check: q * (1 - x - x^2) = 1 term by term
    assert q * Series.from_poly([1, -1, -1], N) == Series.one(N)
    assert 2 / Series.from_poly([1, -1, -1], N) == q * 2


def test_add_zero_identity():
    s = Series.from_poly([3, 1, 4, 1, 5], N)
    assert s + Series.zero(N) == s


def test_div_by_nonunit_errors():
    with pytest.raises(DivisionByNonUnit):
        Series.one(N) / Series.x(N)


@pytest.mark.parametrize("call, error, message", [
    (lambda s: s / 0, ZeroDivisionError, None),
    (lambda s: s**1.5, TypeError, "exponents must be integers"),
    (lambda s: s.shift_down(2), DivisionByNonUnit, "valuation < 2"),
    (lambda s: setattr(s, "coeffs", (1,)), AttributeError, "Series is immutable"),
    (lambda s: s * 0.5, TypeError, "must be int or Fraction, got float"),
    (lambda s: 0.5 * s, TypeError, "must be int or Fraction, got float"),
    (lambda s: s / 0.5, TypeError, "must be int or Fraction, got float"),
    (lambda s: s * None, TypeError, "must be int or Fraction, got NoneType"),
    (lambda s: s * True, TypeError, "must be int or Fraction, got bool"),
    (lambda s: s / Decimal(2), TypeError, "must be int or Fraction, got Decimal"),
], ids=["divide-by-zero", "fractional-power", "shift-down-past-valuation", "assign",
        "times-float", "float-times", "divide-by-float", "times-none", "times-bool", "divide-by-decimal"])
def test_series_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call(Series([0, 3, 1, 4]))


def test_scalar_product_and_quotient_keep_exact_coefficients():
    """A scalar is an exact coefficient, as for + and -; an int or a
    Fraction with denominator 1 scales to ints."""
    s = Series([0, 3, 1, Fraction(1, 2)])
    for got in (s * 2, 2 * s, s * Fraction(2, 1), Fraction(2, 1) * s):
        assert typed(got.coeffs) == typed([0, 6, 2, 1])
    assert typed((s / 2).coeffs) == typed([0, Fraction(3, 2), Fraction(1, 2), Fraction(1, 4)])
    assert typed((s * Fraction(2, 3)).coeffs) == typed([0, 2, Fraction(2, 3), Fraction(1, 3)])


def test_arith_truncates_to_min_order():
    a = Series.one(10)
    b = Series.one(6)
    for result in (a + b, a - b, a * b, a / b):
        assert result.order == 6


def test_compose_identity():
    s = Series.from_poly([2, 0, 1, 7], N)
    assert compose(s, Series.x(N)) == s


def test_compose_geometric_chain():
    # 1/(1-x) at x/(1-x) gives (1-x)/(1-2x) = 1, 1, 2, 4, 8, ...
    inner = Series.x(N) / Series.from_poly([1, -1], N)
    got = compose(geometric(N), inner)
    assert list(got.coeffs) == [1] + [2**n for n in range(N)]


def test_compose_inverse_pair():
    f = Series.x(N) / Series.from_poly([1, -1], N)
    g = Series.x(N) / Series.from_poly([1, 1], N)
    assert compose(f, g) == Series.x(N)


def test_compose_requires_valuation():
    with pytest.raises(CompositionRequiresValuation):
        compose(Series.x(N), Series.one(N))


def test_revert_identity():
    assert revert(Series.x(N)) == Series.x(N)


def test_revert_moebius():
    f = Series.x(N) / Series.from_poly([1, -1], N)
    fbar = revert(f)
    assert fbar == Series.x(N) / Series.from_poly([1, 1], N)
    assert compose(f, fbar) == Series.x(N)
    assert compose(fbar, f) == Series.x(N)


def test_revert_quartic_against_brute_force():
    f = Series.from_poly([0, 1, 0, 0, -1], 10)  # x(1 - x^3)
    fbar = revert(f)
    assert fbar == revert_direct(f)
    assert list(fbar.coeffs[:8]) == [0, 1, 0, 0, 1, 0, 0, 4]


def test_revert_requires_valuation_one():
    with pytest.raises(NotRevertible):
        revert(Series.from_poly([0, 0, 1], N))
    with pytest.raises(NotRevertible):
        revert(Series.one(N))


@given(coeff_lists, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_revert_matches_brute_force_and_round_trips(tail, lead):
    f = Series([0, lead] + tail)
    fbar = revert(f)
    assert fbar == revert_direct(f)
    n = f.order
    assert compose(f, fbar) == Series.x(n)
    assert compose(fbar, f) == Series.x(n)


def test_nth_root_of_one():
    for m in (1, 2, 3, 5):
        assert nth_root_unit(Series.one(N), m) == Series.one(N)


def test_cube_root_perfect_cube():
    u = Series.from_poly([1, 1], N) ** 3
    assert nth_root_unit(u, 3) == Series.from_poly([1, 1], N)


def test_cube_root_derived():
    u = Series.from_poly([1, 0, 0, -1], N)
    v = nth_root_unit(u, 3)
    assert v**3 == u
    assert v[3] == Fraction(-1, 3)
    assert v[6] == Fraction(-1, 9)


def test_sqrt_examples():
    assert sqrt_unit(Series.one(N)) == Series.one(N)
    assert sqrt_unit(Series.from_poly([1, 1], N) ** 2) == Series.from_poly([1, 1], N)
    s = sqrt_unit(Series.from_poly([1, -4], N))
    assert list(s.coeffs[:5]) == [1, -2, -2, -4, -10]
    assert s * s == Series.from_poly([1, -4], N)


rational_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(
    st.lists(st.one_of(st.integers(min_value=-5, max_value=5), rational_coeffs), max_size=14),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_nth_root_inverts_power(tail, m):
    u = Series([1] + tail)
    assert nth_root_unit(u, m) ** m == u


@given(coeff_lists, st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_root_of_integer_power_is_integral(tail, m):
    v = Series([1] + tail)
    root = nth_root_unit(v**m, m)
    assert root == v
    assert all(type(c) is int for c in root.coeffs)


def test_root_requires_unit_constant():
    with pytest.raises(RootRequiresUnitConstant):
        nth_root_unit(Series.from_poly([2], 4), 2)


def test_aerate_noop_and_definitional():
    s = Series.from_poly([1, 1, 2], 2)
    assert aerate(s, 1, 0) == s
    assert list(aerate(s, 3, 0).coeffs) == [1, 0, 0, 1, 0, 0, 2]


def test_aerate_catalan_matches_composition():
    c = catalan_series(4)
    lhs = aerate(c, 3, 1)
    rhs = compose(
        Series.from_poly(c.coeffs, 13), Series.from_poly([0, 0, 0, 1], 13)
    ).shift_up(1)
    assert lhs == rhs.truncate(lhs.order)


def test_compress_definitional():
    assert compress(Series.from_poly([1, 0, 0, 1, 0, 0, 2], 6), 3, 0) == Series([1, 1, 2])
    assert compress(Series.from_poly([0, 1, 0, 0, 2], 4), 3, 1) == Series([1, 2])


def test_compress_block_violation():
    with pytest.raises(BlockProfileViolation) as info:
        compress(Series.from_poly([1, 1], 1), 2, 0)
    assert info.value.index == 1


@pytest.mark.parametrize("coeffs, m, residue", [([0, 0], 2, 5), ([0, 0, 0], 2, 3), ([1, 0], 1, 2)])
def test_compress_names_a_residue_past_the_order(coeffs, m, residue):
    """A residue past the order keeps no coefficient: an InvalidArgument
    that names the residue and the order, not the empty-series error."""
    with pytest.raises(InvalidArgument) as info:
        compress(Series(coeffs), m, residue)
    assert str(info.value) == f"residue {residue} exceeds the order {len(coeffs) - 1}"


@given(coeff_lists, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_compress_aerate_round_trip(coeffs, m, shift):
    shift = min(shift, m - 1)
    s = Series(coeffs)
    aerated = aerate(s, m, shift)
    assert compress(aerated, m, shift) == s


@given(coeff_lists, coeff_lists)
@settings(max_examples=50, deadline=None)
def test_mul_commutes(a, b):
    sa, sb = Series(a), Series(b)
    assert sa * sb == sb * sa


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=50, deadline=None)
def test_mul_associates_and_distributes(a, b, c):
    sa, sb, sc = Series(a), Series(b), Series(c)
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


def test_catalan_series_functional_equation():
    c = catalan_series(15)
    assert c == 1 + (c * c).shift_up(1).truncate(15)
    assert list(c.coeffs[:7]) == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_series_matches_the_convolution_recurrence():
    want = catalan_direct(300).coeffs
    for order in range(301):
        got = catalan_series(order).coeffs
        assert got == want[: order + 1]
        assert all(type(c) is int for c in got)


def test_inexact_coefficients_rejected():
    with pytest.raises(TypeError):
        Series([0.1, 1])
    with pytest.raises(TypeError):
        Series([Decimal(1)])


def test_no_silent_extension():
    s = Series.from_poly([1, 2, 3], 2)
    assert len((s * s).coeffs) == 3
    assert len((s + s).coeffs) == 3


# -- the integer kernels against term-by-term Fraction arithmetic ----------

series_data = exact_lists(min_size=1)  # orders 0..11


@given(series_data, series_data)
@settings(max_examples=100, deadline=None)
def test_mul_matches_fraction_kernel(a, b):
    sa, sb = Series(a), Series(b)
    assert typed((sa * sb).coeffs) == typed(series_mul_direct(sa, sb).coeffs)


@pytest.mark.parametrize("a, b", [
    # x^7 * x^8 at order 13: the first nonzero index of the product is past the order
    ([0] * 7 + [1] + [0] * 6, [0] * 8 + [1] + [0] * 5),
    # two monomials
    ([0, 0, Fraction(1, 2)] + [0] * 10, [0, 0, 0, -4] + [0] * 9),
    ([0] * 3 + [6] + [0] * 9, [0] * 13 + [Fraction(-2, 3)]),
    # two dense series from x^1 and from x^2
    ([0] + list(range(1, 13)), [0, 0] + [Fraction(1, k) for k in range(1, 12)]),
])
def test_mul_on_the_sublattice_matches_the_fraction_kernel(a, b):
    sa, sb = Series(a), Series(b)
    assert typed((sa * sb).coeffs) == typed(series_mul_direct(sa, sb).coeffs)
    assert typed((sb * sa).coeffs) == typed(series_mul_direct(sb, sa).coeffs)


@given(leading_coeffs, exact_lists(max_size=11))
@settings(max_examples=100, deadline=None)
def test_recip_matches_fraction_kernel(c0, tail):
    s = Series([c0] + tail)
    assert typed(s.recip().coeffs) == typed(recip_direct(s).coeffs)


@given(series_data, exact_lists(max_size=9))
@settings(max_examples=100, deadline=None)
def test_compose_matches_fraction_kernel(outer, tail):
    so, si = Series(outer), Series([0] + tail)
    assert typed(compose(so, si).coeffs) == typed(compose_direct(so, si).coeffs)


@given(leading_coeffs, exact_lists(max_size=8))
@settings(max_examples=100, deadline=None)
def test_revert_matches_fraction_kernel(lead, tail):
    f = Series([0, lead] + tail)  # orders 1..9
    assert typed(revert(f).coeffs) == typed(revert_direct(f).coeffs)


# inner orders around the block size k = isqrt(n + 1) of compose_many: n + 1
# a perfect square (3, 8, 15) and one less (2, 7, 14); 0 and 1 as well
inner_orders = st.sampled_from([0, 1, 2, 3, 7, 8, 14, 15])


@st.composite
def outers_around(draw, order):
    """Outer series whose orders fall below, at and above `order`, each
    all-int, all-rational or mixed, and one constant-only outer."""
    orders = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4))
    outers = [Series(draw(exact_lists(1, 1)) + draw(exact_lists(max(0, order + d), max(0, order + d))))
              for d in orders]
    return outers + [Series([draw(exact_coeffs)])]


@given(st.data(), inner_orders, st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_compose_many_matches_fraction_kernel(data, order, valuation):
    valuation = min(valuation, max(order, 1))
    inner = Series([0] * valuation + data.draw(exact_lists(order + 1 - valuation, order + 1 - valuation)))
    outers = data.draw(outers_around(order))
    got = compose_many(outers, inner)
    assert [typed(s.coeffs) for s in got] == [typed(compose_direct(o, inner).coeffs) for o in outers]


@given(st.data(), st.sampled_from([1, 2, 3, 7, 8]), leading_coeffs)
@settings(max_examples=60, deadline=None)
def test_compose_reverted_matches_fraction_kernel(data, order, lead):
    f = Series([0, lead] + data.draw(exact_lists(order - 1, order - 1)))
    outers = data.draw(outers_around(order))
    fbar = revert_direct(f)
    got = compose_reverted(outers, f)
    assert [typed(s.coeffs) for s in got] == [typed(compose_direct(h, fbar).coeffs) for h in outers]


@given(st.data(), st.integers(min_value=28, max_value=32), leading_coeffs)
@settings(max_examples=12, deadline=None)
def test_compose_reverted_undoes_f_at_larger_orders(data, order, lead):
    """G = H(fbar) is the one series with G(f) = H.  At these orders the
    baby steps of compose_reverted pass 2 and short outers end inside them."""
    f = Series([0, lead] + data.draw(exact_lists(order - 1, order - 1)))
    outers = data.draw(outers_around(data.draw(st.sampled_from([0, 1, 2, 5]))))
    outers.append(Series(data.draw(exact_lists(order + 1, order + 1))))
    for h, g in zip(outers, compose_reverted(outers, f)):
        assert g.order == min(h.order, order)
        assert compose_direct(g, f) == h.truncate(g.order)
        assert all(type(c) is int or c.denominator != 1 for c in g.coeffs)


@pytest.mark.parametrize("inner", [[1], [1, 1], [2, 0, 1], [Fraction(1, 2), 1]])
def test_compose_many_requires_valuation(inner):
    with pytest.raises(CompositionRequiresValuation):
        compose_many([Series.one(3), Series.x(3)], Series(inner))


@pytest.mark.parametrize("f", [[0], [1, 1], [0, 0, 1], [0, 0], [Fraction(1, 2), 1, 1]])
def test_compose_reverted_requires_valuation_one(f):
    with pytest.raises(NotRevertible):
        compose_reverted([Series.one(3), Series.x(3)], Series(f))


@given(series_data, series_data, leading_coeffs)
@settings(max_examples=100, deadline=None)
def test_numerators_over_the_least_common_denominator(a, b, c):
    """A series is stored as its numerators over their least common
    denominator, whichever operation made it, and every reader of its
    coefficients (``coeffs``, an index, a slice, ``==``, ``hash``) agrees
    with the same values computed on Fractions."""
    sa, sb = Series(a), Series(b)
    fa, fb = list(map(Fraction, a)), list(map(Fraction, b))
    val = next((i for i, x in enumerate(fa) if x), 0)
    spread = [Fraction(0)] * (3 * len(a) - 1)
    spread[1::3] = fa
    cases = [
        (sa, fa),
        (sa * sb, [sum(fa[i] * fb[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]),
        (sa + sb, [x + y for x, y in zip(fa, fb)]),
        (sa - sb, [x - y for x, y in zip(fa, fb)]),
        (-sa, [-x for x in fa]),
        (sa * c, [x * c for x in fa]),
        (sa / c, [x / c for x in fa]),
        (sa.truncate(len(a) // 2), fa[: len(a) // 2 + 1]),
        (sa.shift_up(2), [Fraction(0)] * 2 + fa),
        (sa.shift_down(val), fa[val:]),
        (aerate(sa, 3, 1), spread),
        (compress(aerate(sa, 3, 1), 3, 1), fa),
    ]
    for s, want in cases:
        nums, den = s.scaled()
        assert den >= 1 and math.gcd(den, *nums) == 1
        assert den == math.lcm(*(x.denominator for x in want))
        assert all(type(v) is int for v in nums)
        assert [Fraction(v, den) for v in nums] == want
        coeffs = s.coeffs
        assert typed(coeffs) == typed(x.numerator if x.denominator == 1 else x for x in want)
        assert s == Series(list(coeffs)) and hash(s) == hash(Series(list(coeffs)))
        assert typed(s[i] for i in range(len(coeffs))) == typed(coeffs)
        assert typed([s[-1]]) == typed([coeffs[-1]])
        assert typed(s[1:3]) == typed(coeffs[1:3]) and type(s[1:3]) is tuple


# -- powers ---------------------------------------------------------------


def test_pow_exponent_beyond_the_order_costs_no_more():
    k = 10**100
    start = time.perf_counter()
    got = Series.from_poly([1, 1], 60) ** k
    elapsed = time.perf_counter() - start
    assert list(got.coeffs) == [math.comb(k, n) for n in range(61)]
    assert elapsed < 2
    assert list((Series.from_poly([-1, 1], 60) ** k).coeffs) == [
        (-1) ** n * math.comb(k, n) for n in range(61)
    ]
    assert Series.from_poly([0, 1], 60) ** k == Series.zero(60)
    k = 10**5  # a non-unit constant: one recurrence on coefficients of about k bits
    got = Series.from_poly([2, 1], 60) ** k
    assert list(got.coeffs) == [math.comb(k, n) * 2 ** (k - n) for n in range(61)]


@pytest.mark.parametrize("base", [
    [1, 1, -2], [-1, 3, 0, 1], [1, Fraction(1, 2), -3], [0, 2, 1],
    [2, 1, -1], [Fraction(-3, 2), 0, 1],
    # x^2 w at orders 13 and 14: 2k = 12 and 14 fall just inside or at the
    # order, 2k = 14 and 18 past it
    [0, 0, 3, 1] + [0] * 9 + [-1], [0, 0, Fraction(1, 2), 0, 1] + [0] * 10,
])
@pytest.mark.parametrize("k", [6, 7, 9])
def test_pow_beyond_the_order_matches_repeated_products(base, k):
    """Every power, of a unit, non-unit or zero constant term, is one Miller
    recurrence, and agrees with k repeated Fraction products."""
    order = max(5, len(base) - 1)
    s = Series.from_poly(base, order)
    want = Series.one(order)
    for _ in range(k):
        want = series_mul_direct(want, s)
    assert typed((s**k).coeffs) == typed(want.coeffs)
    if s[0]:
        assert typed((s**-k).coeffs) == typed(recip_direct(want).coeffs)
    else:
        with pytest.raises(DivisionByNonUnit):
            s**-k


def test_pow_makes_no_product(monkeypatch):
    """^ runs the Miller recurrence for every base and exponent: no
    convolution, whether the exponent passes the order or not."""
    calls = [0]
    convolve = series._convolve

    def counted(*args):
        calls[0] += 1
        return convolve(*args)

    monkeypatch.setattr(series, "_convolve", counted)
    assert list((Series.from_poly([2, 1], 10) ** 40).coeffs) == [
        math.comb(40, n) * 2 ** (40 - n) for n in range(11)
    ]
    assert list((Series.from_poly([1, 1, 1], 6) ** 3).coeffs) == [1, 3, 6, 7, 6, 3, 1]
    got = Series.from_poly([0, 1, 1], 30) ** 5  # x^5 (1+x)^5
    assert list(got.coeffs) == [0] * 5 + [math.comb(5, n) for n in range(6)] + [0] * 20
    assert calls[0] == 0


@pytest.mark.parametrize("coeffs", [
    {0: 1, 4: 2, 7: 3, 14: 5},  # a dense lattice (gcd 1), mostly zeros
    {0: 1, 5: Fraction(1, 2), 9: -3, 19: Fraction(2, 7)},
    {0: -2, 3: 1, 11: 4},
])
def test_recip_and_roots_of_sparse_operands_match_the_fraction_oracles(coeffs):
    s = Series([coeffs.get(i, 0) for i in range(21)])
    assert typed(s.recip().coeffs) == typed(recip_direct(s).coeffs)
    for k in (-3, 2, 5):
        assert typed((s**k).coeffs) == typed(power_direct(s, k).coeffs)
    if s[0] == 1:
        for m in (2, 3):
            assert typed(nth_root_unit(s, m).coeffs) == typed(power_direct(s, 1, m).coeffs)


@pytest.mark.parametrize("call", [
    lambda s: s.truncate(-2),
    lambda s: s.shift_down(-1),
    lambda s: s.shift_up(-1),
    lambda s: s.eq_through(s, -2),
    lambda s: Series.constant(5, -3),
    lambda s: Series.zero(-1),
    lambda s: Series.one(-1),
], ids=["truncate", "shift_down", "shift_up", "eq_through", "constant", "zero", "one"])
def test_negative_order_or_shift_is_invalid(call):
    """A negative order or shift is an error, never a slice from the end."""
    with pytest.raises(InvalidArgument):
        call(Series([1, 2, 3, 4]))


@pytest.mark.parametrize("call, name", [
    (lambda s: compress(s, 2, -1), "residue"),
    (lambda s: compress(s, 0, 0), "m"),
    (lambda s: compress(s, -2, 0), "m"),
    (lambda s: aerate(s, 2, 0, order=-3), "order"),
    (lambda s: aerate(s, 2, -1), "shift"),
    (lambda s: aerate(s, 0), "m"),
], ids=["compress-residue", "compress-m0", "compress-m-neg", "aerate-order", "aerate-shift", "aerate-m0"])
def test_aerate_and_compress_name_a_bad_argument(call, name):
    """A negative residue, shift or order, or a modulus below 1, is an
    InvalidArgument that names the argument."""
    with pytest.raises(InvalidArgument) as info:
        call(Series([1, 0, 3, 0]))
    assert str(info.value).startswith(f"{name} must be >= ")


@pytest.mark.parametrize("c", [1, -1, 3, -2, Fraction(2, 3), Fraction(-1, 2)])
@pytest.mark.parametrize("v, n", [
    (0, 0), (0, 1), (0, 7), (0, -1), (0, -3),
    (1, 0), (1, 5), (1, 7), (2, 3), (3, 4), (4, 2), (5, 1), (6, 1), (6, 2),
])
def test_monomial_power_matches_repeated_products(c, v, n):
    """c*x^v to the n: the direct placement agrees with repeated Fraction
    products, including v*n past the order (the zero series), n = 0 and,
    for constants, negative n."""
    s = Series.from_poly([0] * v + [c], 6)
    want = Series.one(6)
    for _ in range(abs(n)):
        want = series_mul_direct(want, s)
    if n < 0:
        want = recip_direct(want)
    assert typed((s**n).coeffs) == typed(want.coeffs)
    assert (s**n).scaled() == want.scaled()


def test_monomial_power_makes_no_product(monkeypatch):
    """x^60 at order 60 is a monomial of the evaluator, placed directly."""
    calls = [0]
    convolve = series._convolve

    def counted(*args):
        calls[0] += 1
        return convolve(*args)

    monkeypatch.setattr(series, "_convolve", counted)
    got = evaluate_text("x^60", 60)
    assert list(got.coeffs) == [0] * 60 + [1]
    assert calls[0] == 0


@st.composite
def convolution_operands(draw):
    """Two integer sequences of 1..80 coefficients and an n below both
    lengths.  Per operand: magnitudes of up to 2^300 (often small, so that
    both the packed product and the loop run), drawn as they are or made
    +-2^k or +-(2^k - 1); zeros at none, a quarter, half, three quarters or
    all of the places; signs mixed, all negative, or mixed under a negative
    top coefficient.  Places are chosen by the bits of drawn integers.  Or,
    where the slot bound is nearly met, both operands are one sign times
    2^bits - 1 throughout."""
    n = 79 - draw(st.integers(0, 79))  # from the top down, so that most operands can pack
    la, lb = (n + 1 + draw(st.integers(0, 79 - n)) for _ in range(2))
    tight = draw(st.booleans())

    def operand(length):
        bits = draw(st.one_of(st.integers(0, 8), st.integers(0, 120), st.integers(120, 300)))
        if tight:
            return [draw(st.sampled_from([1, -1])) * ((1 << bits) - 1)] * length
        values = draw(st.lists(st.integers(0, 2**bits), min_size=length, max_size=length))
        shape = draw(st.sampled_from(["drawn", "2^k", "2^k - 1"]))
        if shape == "2^k":
            values = [1 << v.bit_length() for v in values]
        elif shape == "2^k - 1":
            values = [(1 << v.bit_length()) - 1 for v in values]
        r, s, t = (draw(st.integers(0, 2**length - 1)) for _ in range(3))
        zeros = draw(st.sampled_from([0, r & s, r, r | s, 2**length - 1]))
        signs = draw(st.sampled_from(["mixed", "negative", "negative top"]))
        negative = t if signs != "negative" else 2**length - 1
        out = [0 if zeros >> i & 1 else -v if negative >> i & 1 else v for i, v in enumerate(values)]
        if signs == "negative top":
            out[n] = -max(1, abs(out[n]))
        return out

    return operand(la), operand(lb), n


@given(convolution_operands())
# nonzero(a) * nonzero(b) against 8 (n + 1): packed from 8 (n + 1) on
@example(([3] * 10, [1] * 9 + [0], 9))  # 10 * 9 = 90 of 80: packed
@example(([3] * 10, [-1] * 10, 9))  # 100 of 80: packed
@example(([2] * 16, [0, 0, 5, 0, 0, 5, 0, 0] + [5] * 8, 15))  # 16 * 10 = 160 of 128: packed
@example(([2] * 16, [0, 0, 5, 0, 0, 5, 0, 5] + [5] * 8, 15))  # 176 of 128: packed
@example(([1] * 7 + [0], [-2] * 8, 7))  # 7 * 8 = 56 of 64, the most below it at n = 7: the loop
@example(([1] * 8, [-2] * 8, 7))  # 64 of 64: packed
@example(([1] * 9 + [0] * 7, [3] * 14 + [0, 0], 15))  # 9 * 14 = 126 of 128, the most below it: the loop
@example(([1] * 8 + [0] * 8, [-3] * 16, 15))  # 8 * 16 = 128 of 128: packed
@example(([0] * 8 + [5] * 9, [0, 0] + [-1] * 15, 16))  # 9 * 15 = 135 = 8 * 17 - 1: the loop
@example(([0] * 9 + [5] * 8, [-1] * 17, 16))  # 8 * 17 = 136: packed
@example(([2**126 - 1] * 15, [2**125 - 1] * 15, 14))  # slot of 256 bits: packed
@example(([2**126 - 1] * 15, [-(2**126 - 1)] * 15, 14))  # 257 bits: the loop
@example(([-(2**125 - 1)] * 15, [2**126 - 1] * 14 + [-1], 14))  # negative top, 256 bits
@example(([1, -1] * 40, [1] * 79 + [-(2**40)], 79))  # packed, a wide negative top
@settings(max_examples=150, deadline=None)
def test_convolve_matches_the_schoolbook_definition(operands):
    """series._convolve, packed or looped, equals the definition for any
    integer operands, and every result coefficient stays an int."""
    a, b, n = operands
    got = series._convolve(a, b, n)
    assert got == convolve_direct(a, b, n)
    assert all(type(c) is int for c in got)


@pytest.mark.parametrize("a, b, packed", [
    # 20 * 20 = 400 pairs of nonzero terms for 40 slots: packed, at half density
    ([3, 0] * 20, [0, -7] * 20, True),
    # 1 + t against a dense operand: 2 * 40 pairs, the loop
    ([1, 1] + [0] * 38, [5] * 40, False),
    # dense, but a slot of 125 + 125 + 6 + 1 = 257 bits: the loop
    ([2**125 - 1] * 40, [-(2**124)] * 40, False),
])
def test_convolve_packs_by_the_work_of_the_loop(monkeypatch, a, b, packed):
    calls = [0]
    pack = series._pack

    def counted(*args):
        calls[0] += 1
        return pack(*args)

    monkeypatch.setattr(series, "_pack", counted)
    assert series._convolve(a, b, 39) == convolve_direct(a, b, 39)
    assert calls[0] == (2 if packed else 0)


def chain_direct(start, factors, sizes) -> list:
    """The products of series._product_chain, one convolve_direct and one
    reduction a step."""
    out, (nums, den) = [], start
    for k, size in enumerate(sizes):
        f, df = factors[k % len(factors)]
        nums, den = series._reduced(convolve_direct(nums, f, size - 1), den * df)
        out.append((list(nums), den))
    return out


@st.composite
def product_chains(draw):
    """Arguments of series._product_chain: a start and one to three
    factors of n coefficients, and one to twelve sizes from n down.  Per
    operand: magnitudes of a few bits, of 28-35 bits (so that max|a| *
    sum|f| falls near 2^63 on either side) or of 60-70 bits; zeros at none,
    half or most of the places; signs mixed, or a negative top
    coefficient; all numerators times 1, 2 or 3 over a denominator 1, 2, 3
    or 6, so that the reductions divide."""
    n = draw(st.integers(1, 40))
    sizes = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=12)), reverse=True)

    def operand():
        bits = draw(st.one_of(st.integers(0, 4), st.integers(28, 35), st.integers(60, 70)))
        values = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=n, max_size=n))
        r, s = (draw(st.integers(0, 2**n - 1)) for _ in range(2))
        zeros = draw(st.sampled_from([0, r & s, r | s]))
        values = [0 if zeros >> i & 1 else v for i, v in enumerate(values)]
        if draw(st.booleans()):
            values[-1] = -max(1, abs(values[-1]))
        c = draw(st.sampled_from([1, 2, 3]))
        return [c * v for v in values], draw(st.sampled_from([1, 2, 3, 6]))

    start = operand()
    return start, [operand() for _ in range(draw(st.integers(1, 3)))], sizes


# one step each: max|a| * sum|f| against 2^63, sixteen coefficients
NEAR_63 = [
    # bits 31 + 32 = 63: packed; slot 15 is (2^31 - 1) * (2^32 - 1)
    (([2**31 - 1] * 16, 1), [([2**28] * 15 + [2**28 - 1], 1)], [16], 0),
    (([-(2**31 - 1)] * 16, 1), [([2**28] * 15 + [2**28 - 1], 1)], [16], 0),
    # bits 32 + 33 = 65: slot 15 would be 2^63, so _convolve
    (([2**31] * 16, 1), [([2**28] * 16, 1)], [16], 1),
    (([-(2**31)] * 16, 1), [([2**28] * 15 + [-(2**28)], 1)], [16], 1),
    # bits 32 + 32 = 64, though every slot fits: _convolve
    (([2**31] * 16, 1), [([2**28] * 15 + [2**28 - 1], 1)], [16], 1),
]
# hand-offs in the middle of a chain, which then stays on _convolve
HAND_OFFS = [
    # widths: 1 + 25 bits, then 25 + 25, then 48 + 25 > 63 from the third step
    (([1] * 20, 1), [([2**20] * 20, 1)], [20] * 5, 3),
    # the sparse second factor fails the work rule; the dense first one follows
    (([1] * 16, 1), [([1, 2] * 8, 1), ([1] + [0] * 15, 1)], [16, 16, 16, 16], 3),
    # sizes below 8 fail the work rule
    (([1] * 12, 1), [([1] * 12, 1)], [12, 10, 8, 7, 7, 3], 3),
    # rational numerators: every step divides by 3, packed and after
    (([3] * 12, 2), [([3, -6] * 6, 3)], [12, 12, 12], 0),
    (([3] * 12, 2), [([3, -6] * 6, 3), ([3, 0] * 6, 3)], [12, 12, 12], 2),
]


@given(product_chains())
@example(NEAR_63[0][:3])
@example(NEAR_63[2][:3])
@example(HAND_OFFS[0][:3])
@settings(max_examples=150, deadline=None)
def test_product_chain_matches_the_direct_products(chain):
    """Every product of series._product_chain, packed or on _convolve, equals
    the convolution by definition reduced as ``_powers`` reduces it, and
    every value stays an int."""
    got = [(list(nums), den) for nums, den in series._product_chain(*chain)]
    assert got == chain_direct(*chain)
    assert all(type(v) is int for nums, _ in got for v in nums)


@pytest.mark.parametrize("start, factors, sizes, convolved", NEAR_63 + HAND_OFFS)
def test_product_chain_packs_until_a_step_cannot(monkeypatch, start, factors, sizes, convolved):
    """A step packs while bits(max|a|) + bits(sum|f|) < 64 and the work rule
    would pack; the first step that cannot is a _convolve, and so is every
    later one."""
    calls = []
    convolve = series._convolve

    def counted(a, b, n):
        calls.append(n + 1)
        return convolve(a, b, n)

    monkeypatch.setattr(series, "_convolve", counted)
    got = [(list(nums), den) for nums, den in series._product_chain(start, factors, sizes)]
    assert got == chain_direct(start, factors, sizes)
    assert calls == sizes[len(sizes) - convolved :]


@given(st.data(), st.integers(1, 30), st.integers(1, 6), st.sampled_from(["small", "wide", "rational"]))
@settings(max_examples=40, deadline=None)
def test_power_tables_match_the_fraction_oracles(data, n, count, kind):
    """series._powers(s, count, n) gives s^0..s^count through x^n."""
    coeff = {
        "small": st.integers(-3, 3),
        "wide": st.integers(-(2**30), 2**30),
        "rational": st.fractions(min_value=-5, max_value=5, max_denominator=6),
    }[kind]
    s = Series(data.draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)))
    for j, (nums, den) in enumerate(series._powers(s.scaled(), count, n)):
        want = power_direct(s, j).coeffs[: n + 1]
        assert typed(Series._over(list(nums[: n + 1]), den).coeffs) == typed(want)


# -- kernels on the sublattice a series occupies ---------------------------

wide_coeffs = st.integers(min_value=-(2**100), max_value=2**100)


@st.composite
def sublattice_series(draw, order, v=None, s=None, lead=None):
    """x^v A(x^s) through `order`, v in 0..4 and s in 1..7 unless given,
    each place nonzero or not, its coefficients all int, all rational,
    mixed or of up to 100 bits; or a monomial c*x^v; or the zero series.
    `lead`, if given, is the coefficient at x^v, also of a zero series."""
    shape = draw(st.sampled_from(["lattice"] * 4 + ["monomial", "zero"]))
    v = draw(st.integers(0, 4)) if v is None else v
    s = draw(st.integers(1, 7)) if s is None else s
    kind = draw(st.sampled_from([int_coeffs, rational_coeffs, exact_coeffs, wide_coeffs]))
    places = {"lattice": range(v, order + 1, s), "monomial": range(v, v + 1), "zero": ()}[shape]
    out = [0] * (order + 1)
    for i in places:
        if i <= order:
            out[i] = draw(kind)
    if lead is not None and v <= order:
        out[v] = lead
    return Series(out)


def check_as_oracle(got, want, error):
    """got() and want() give equal values of equal types; or, where the
    oracle fails, got() raises `error`."""
    try:
        expected = want()
    except ZeroDivisionError:
        with pytest.raises(error):
            got()
        return
    result = got()
    if isinstance(result, list):
        assert [typed(r.coeffs) for r in result] == [typed(e.coeffs) for e in expected]
    else:
        assert typed(result.coeffs) == typed(expected.coeffs)


orders = st.integers(min_value=0, max_value=13)
units = st.sampled_from([None, 1, -1, 2])


@given(st.data(), orders, orders, units, units)
@settings(max_examples=120, deadline=None)
def test_sublattice_products_and_powers_match_the_fraction_oracles(data, na, nb, ua, ub):
    a = data.draw(sublattice_series(na, lead=ua))
    b = data.draw(sublattice_series(nb, lead=ub))
    check_as_oracle(lambda: a * b, lambda: series_mul_direct(a, b), None)
    check_as_oracle(a.recip, lambda: recip_direct(a), DivisionByNonUnit)
    for k in (-3, 0, 1, 2, na + 1, na + 3):
        check_as_oracle(lambda: a**k, lambda: power_direct(a, k), DivisionByNonUnit)
    for m in (2, 3, 4):
        if a[0] == 1:
            check_as_oracle(lambda: nth_root_unit(a, m), lambda: power_direct(a, 1, m), None)
        else:
            with pytest.raises(RootRequiresUnitConstant):
                nth_root_unit(a, m)


@given(st.data(), orders, st.integers(1, 4), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_sublattice_compositions_match_the_fraction_oracles(data, order, v, s):
    """Inner series x^v A(x^s) with s | v and with gcd(v, s) < s, against
    Horner on Fraction products; a constant term is an error."""
    v = data.draw(st.sampled_from([v, s * v]))
    inner = data.draw(sublattice_series(order, v=v, s=s))
    outers = [data.draw(sublattice_series(data.draw(orders))) for _ in range(data.draw(st.integers(1, 3)))]
    check_as_oracle(lambda: compose(outers[0], inner), lambda: compose_direct(outers[0], inner), None)
    check_as_oracle(lambda: compose_many(outers, inner),
                    lambda: [compose_direct(o, inner) for o in outers], None)
    constant = Series([data.draw(leading_coeffs)]) + inner
    with pytest.raises(CompositionRequiresValuation):
        compose_many(outers, constant)


@given(st.data(), st.integers(1, 9), st.integers(1, 7), leading_coeffs)
@settings(max_examples=60, deadline=None)
def test_sublattice_reversions_match_the_fraction_oracles(data, order, s, lead):
    """f = x F(x^s) has its inverse in the same form."""
    f = data.draw(sublattice_series(order, v=1, s=s, lead=lead))
    outers = [data.draw(sublattice_series(data.draw(orders))) for _ in range(2)]
    fbar = revert_direct(f)
    assert typed(revert(f).coeffs) == typed(fbar.coeffs)
    check_as_oracle(lambda: compose_reverted(outers, f),
                    lambda: [compose_direct(h, fbar) for h in outers], None)


def test_recip_runs_on_the_sublattice(monkeypatch):
    """1/(1+x^3) at order 60 is 21 recurrence steps in t = x^3, not 61."""
    calls = [0]
    extend = series._extend

    def counted(*args):
        calls[0] += 1
        return extend(*args)

    monkeypatch.setattr(series, "_extend", counted)
    got = Series.from_poly([1, 0, 0, 1], 60).recip()
    assert list(got.coeffs) == [(-1) ** (n // 3) if n % 3 == 0 else 0 for n in range(61)]
    assert calls[0] == 60 // 3 + 1


@given(st.lists(st.sampled_from([0, 0, 0, 1, -2, 7]), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_lattice_is_the_widest_step_of_the_nonzero_indices(a):
    """(v, s): v the first nonzero index (0 if none), s the gcd of the
    distances from it, 0 for at most one nonzero."""
    nonzero = [i for i, c in enumerate(a) if c]
    v = nonzero[0] if nonzero else 0
    assert series._lattice(a) == (v, math.gcd(*(i - v for i in nonzero)))
