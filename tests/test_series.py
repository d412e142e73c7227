from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mriordan import (
    BlockProfileViolation,
    CompositionRequiresValuation,
    DivisionByNonUnit,
    NotRevertible,
    RootRequiresUnitConstant,
    Series,
    aerate,
    catalan_series,
    compose,
    compress,
    nth_root_unit,
    revert,
    sqrt_unit,
)
from mriordan.series import div

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
    q = div(Series.one(N), Series.from_poly([1, -1, -1], N))
    assert list(q.coeffs) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]
    # independent check: q * (1 - x - x^2) = 1 term by term
    assert q * Series.from_poly([1, -1, -1], N) == Series.one(N)


def test_add_zero_identity():
    s = Series.from_poly([3, 1, 4, 1, 5], N)
    assert s + Series.zero(N) == s


def test_div_by_nonunit_errors():
    with pytest.raises(DivisionByNonUnit):
        div(Series.one(N), Series.x(N))


def test_arith_truncates_to_min_order():
    a = Series.one(10)
    b = Series.one(6)
    for result in (a + b, a - b, a * b, div(a, b)):
        assert result.order == 6


def test_compose_identity():
    s = Series.from_poly([2, 0, 1, 7], N)
    assert compose(s, Series.x(N)) == s


def test_compose_geometric_chain():
    # 1/(1-x) at x/(1-x) gives (1-x)/(1-2x) = 1, 1, 2, 4, 8, ...
    inner = div(Series.x(N), Series.from_poly([1, -1], N))
    got = compose(geometric(N), inner)
    assert list(got.coeffs) == [1] + [2**n for n in range(N)]


def test_compose_inverse_pair():
    f = div(Series.x(N), Series.from_poly([1, -1], N))
    g = div(Series.x(N), Series.from_poly([1, 1], N))
    assert compose(f, g) == Series.x(N)


def test_compose_requires_valuation():
    with pytest.raises(CompositionRequiresValuation):
        compose(Series.x(N), Series.one(N))


def brute_force_revert(f, order):
    """Solve f(r) = x coefficient by coefficient; independent oracle."""
    r = Series.from_poly([0, Fraction(1, f[1])], order)
    for n in range(2, order + 1):
        err = compose(f.truncate(order), r)[n]
        coeffs = list(r.coeffs)
        coeffs[n] = Fraction(-err, f[1])
        r = Series(coeffs)
    return r


def test_revert_identity():
    assert revert(Series.x(N)) == Series.x(N)


def test_revert_moebius():
    f = div(Series.x(N), Series.from_poly([1, -1], N))
    fbar = revert(f)
    assert fbar == div(Series.x(N), Series.from_poly([1, 1], N))
    assert compose(f, fbar) == Series.x(N)
    assert compose(fbar, f) == Series.x(N)


def test_revert_quartic_against_brute_force():
    f = Series.from_poly([0, 1, 0, 0, -1], 10)  # x(1 - x^3)
    fbar = revert(f)
    assert fbar == brute_force_revert(f, 10)
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
    assert fbar == brute_force_revert(f, f.order)
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


def test_inexact_coefficients_rejected():
    with pytest.raises(TypeError):
        Series([0.1, 1])
    with pytest.raises(TypeError):
        Series([Decimal(1)])


def test_no_silent_extension():
    s = Series.from_poly([1, 2, 3], 2)
    assert len((s * s).coeffs) == 3
    assert len((s + s).coeffs) == 3
