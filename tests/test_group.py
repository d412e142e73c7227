import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mriordan import (
    BlockProfileViolation,
    InvalidArgument,
    LatticeSpec,
    MRiordanError,
    MixedModulus,
    MixedOrder,
    NonUnitLeadingCoefficient,
    OrderTooSmall,
    Series,
    aerate,
    apply_ftra,
    bivariate_table,
    classify_subgroups,
    count_table,
    decompose_semidirect,
    diagonal_sums,
    evaluate_text,
    hankel_transform,
    identity,
    interleave_split,
    inverse,
    left_factors,
    new_element,
    nth_root_unit,
    product,
    revert,
    row_sums,
    step_series,
    to_matrix,
)
from mriordan.documents import lattice_from_doc, parse_sequence
from mriordan.golden import THREEFOLD_DOC
from mriordan.sequences import bareiss_determinant
from oracles import (
    inverse_direct,
    product_direct,
    product_via_root,
    step_product,
    step_series_root,
)

from conftest import random_proper_element, random_rational_element

N = 30


def element_from_exprs(m, g, fs, order=N):
    return new_element(
        m,
        evaluate_text(g, order),
        [evaluate_text(f, order) for f in fs],
        order,
    )


def test_identity_element_and_matrix():
    e = identity(3, N)
    assert e.is_proper
    mat = to_matrix(e, 8)
    assert all(mat[n, k] == (1 if n == k else 0) for n in range(8) for k in range(8))


def test_new_element_validation_errors():
    with pytest.raises(BlockProfileViolation) as info:
        element_from_exprs(3, "1+x", ["x", "x", "x"])
    assert info.value.component == "g"
    assert info.value.index == 1
    with pytest.raises(BlockProfileViolation):
        element_from_exprs(3, "1", ["x", "x^2", "x"])
    with pytest.raises(NonUnitLeadingCoefficient):
        element_from_exprs(3, "x^3", ["x", "x", "x"])
    with pytest.raises(NonUnitLeadingCoefficient):
        element_from_exprs(3, "1", ["x", "x^4", "x"])
    with pytest.raises(MixedOrder):
        new_element(2, Series.one(6), [Series.x(6), Series.x(8)], 6)


def test_step_series(example1, example2):
    assert step_series(identity(3, N)) == Series.from_poly([0, 0, 0, 1], N)
    want = evaluate_text("x^3/(1-x^3)", example1.order)
    assert step_series(example1) == want
    want2 = evaluate_text("x^3*(1+x^3)", example2.order)
    assert step_series(example2) == want2


@pytest.mark.parametrize("make", [random_proper_element, random_rational_element])
def test_step_series_is_the_product_of_the_f(make):
    rng = random.Random(11)
    for m in (1, 2, 3, 4):
        for order in (m, 13, 24):
            e = make(rng, m, order)
            assert step_series(e) == step_product(e)


@pytest.mark.parametrize("make", [random_proper_element, random_rational_element])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_results_rebuild_to_themselves(make, m):
    """Elements are stored compressed, and product and inverse build their
    results without validating them: rebuilding an element or a result from
    its x-domain views gives it back, at every order 1..2m+1 and at 24."""
    rng = random.Random(100 + m)
    for order in [*range(1, 2 * m + 2), 24]:
        a, b = make(rng, m, order), make(rng, m, order)
        for e in (a, product(a, b), inverse(a)):
            assert new_element(e.m, e.g, e.f, e.order) == e
            assert step_series(e) == step_product(e)


@pytest.mark.parametrize("m, order, g, f, error, message", [
    (1, 0, [1], [[0]], NonUnitLeadingCoefficient, "f_1 has zero coefficient at x^1"),
    (1, 0, [0], [[0]], NonUnitLeadingCoefficient, "g has zero constant term"),
    (2, 0, [0], [[0], [5]], BlockProfileViolation,
     "f_2: coefficient at index 0 violates residue 1 (mod 2)"),
    (3, 2, [1, 0, 1], [[0, 1, 0]] * 3, BlockProfileViolation,
     "g: coefficient at index 2 violates residue 0 (mod 3)"),
    (3, 2, [0, 0, 0], [[0, 1, 0], [0, 0, 1], [0, 1, 0]], BlockProfileViolation,
     "f_2: coefficient at index 2 violates residue 1 (mod 3)"),
    (3, 2, [1, 0, 0], [[0, 1, 0], [0, 1, 0], [0, 0, 0]], NonUnitLeadingCoefficient,
     "f_3 has zero coefficient at x^1"),
])
def test_new_element_errors_at_order_0_and_below_m(m, order, g, f, error, message):
    with pytest.raises(error) as info:
        new_element(m, Series(g), [Series(fi) for fi in f], order)
    assert str(info.value) == message
    if error is BlockProfileViolation:
        assert info.value.component == message.split(":")[0]


def test_step_series_root(example1):
    h = step_series_root(example1)
    w = step_series(example1)
    assert (h * h * h) == w.truncate(h.order * 3).truncate((h * h * h).order)
    assert h[1] == 1 and h[0] == 0


def test_matrix_entries_example1(example1):
    mat = to_matrix(example1, 9)
    assert mat[4, 1] == 2
    assert mat[7, 1] == 3
    assert mat[8, 2] == 5
    assert mat[8, 5] == 4


def test_matrix_entries_example2(example2):
    mat = to_matrix(example2, 9)
    assert mat[7, 1] == 1
    assert mat[8, 2] == 4
    assert mat[7, 4] == 3


def test_matrix_rows_bounded_by_order():
    with pytest.raises(OrderTooSmall):
        to_matrix(identity(3, 5), 7)


def test_product_with_identity(example1):
    ident = identity(3, example1.order)
    assert product(example1, ident) == example1
    assert product(ident, example1) == example1


def test_product_mixed_errors():
    with pytest.raises(MixedModulus):
        product(identity(2, N), identity(3, N))
    with pytest.raises(MixedOrder):
        product(identity(3, N), identity(3, N + 1))


def test_semidirect_factorization(example1, example2):
    for e in (example1, example2):
        left, right = decompose_semidirect(e)
        assert left.f == identity(e.m, e.order).f
        assert right.g == Series.one(e.order)
        assert product(left, right) == e


def test_inverse_example1_closed_form(example1):
    inv = inverse(example1)
    order = example1.order
    assert inv.g == evaluate_text("1/(1+x^3)", order)
    assert inv.f[0] == evaluate_text("x/(1+x^3)", order)
    assert inv.f[1] == evaluate_text("x*(1+x^3)/(1+2*x^3)", order)
    assert inv.f[2] == evaluate_text("x*(1+2*x^3)/(1+x^3)", order)
    assert product(example1, inv) == identity(3, order)
    assert product(inv, example1) == identity(3, order)


def test_inverse_example2_catalan_form(example2):
    inv = inverse(example2)
    order = example2.order
    assert inv.g == evaluate_text("catalan(-x^3)", order)
    assert inv.f[0] == evaluate_text("x*catalan(-x^3)", order)
    assert inv.f[1] == evaluate_text("x*(1-x^3*catalan(-x^3))", order)
    assert inv.f[2] == evaluate_text("x/(1-x^3*catalan(-x^3))", order)
    mat = to_matrix(inv, 10)
    assert mat[9, 0] == -5
    assert mat[7, 1] == 5
    assert mat[8, 2] == 8


def test_ftra_example1(example1):
    arg = evaluate_text("(1-x^3)/(1+x^3)", example1.order)
    got = apply_ftra(example1, arg)
    assert got == evaluate_text("(1-2*x^3)/(1-x^3)", example1.order)
    got_inv = apply_ftra(inverse(example1), arg)
    assert got_inv == evaluate_text("1/((1+x^3)*(1+2*x^3))", example1.order)
    assert list(got_inv.coeffs[:12]) == [1, 0, 0, -3, 0, 0, 7, 0, 0, -15, 0, 0]


def test_ftra_rejects_bad_profile(example1):
    with pytest.raises(BlockProfileViolation):
        apply_ftra(example1, Series.from_poly([1, 1], example1.order))


def test_ftra_matches_matrix_action(example1):
    arg = evaluate_text("(1-x^3)/(1+x^3)", example1.order)
    got = apply_ftra(example1, arg)
    rows = 15
    mat = to_matrix(example1, rows)
    vec = arg.coeffs[:rows]
    for n in range(rows):
        assert got[n] == sum(mat[n, k] * vec[k] for k in range(n + 1))


def test_classify_identity():
    labels = classify_subgroups(identity(3, N))
    assert labels == {"A", "B_1", "B_2", "B_3", "Classical", "Proper"}


def test_classify_example3(example3):
    labels = classify_subgroups(example3)
    assert labels == {"B_1", "B_2", "B_3", "Classical", "Proper"}


def test_classify_example1(example1):
    # f_1 = x/(1-x^3) is exactly x*g here, so B_1 membership holds.
    assert classify_subgroups(example1) == {"B_1", "Proper"}


def test_group_laws_random():
    rng = random.Random(7)
    for m in (1, 2, 3, 4):
        ident = identity(m, N)
        for _ in range(5):
            a = random_proper_element(rng, m, N)
            b = random_proper_element(rng, m, N)
            c = random_proper_element(rng, m, N)
            assert product(product(a, b), c) == product(a, product(b, c))
            inv = inverse(a)
            assert product(a, inv) == ident
            assert product(inv, a) == ident


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inverse_at_every_small_order(m):
    """Orders that m does not divide, and orders below m, included."""
    rng = random.Random(m)
    for order in range(1, 2 * m + 2):
        ident = identity(m, order)
        for e in (ident, random_proper_element(rng, m, order),
                  random_rational_element(rng, m, order)):
            inv = inverse(e)
            assert product(e, inv) == ident == product(inv, e)


def test_matrix_homomorphism_random():
    rng = random.Random(21)
    rows = 13
    for m in (1, 2, 3, 4):
        for _ in range(4):
            a = random_proper_element(rng, m, N)
            b = random_proper_element(rng, m, N)
            lhs = to_matrix(product(a, b), rows)
            rhs = to_matrix(a, rows) @ to_matrix(b, rows)
            assert lhs == rhs


def test_nonproper_rational_elements_work():
    rng = random.Random(5)
    for m in (1, 2, 3):
        e = random_rational_element(rng, m, 18)
        ident = identity(m, 18)
        assert product(e, inverse(e)) == ident
        # scale away properness: g0 = 3, (f_1)_1 = 1/2
        g = e.g * 3
        f = [e.f[0] / 2] + list(e.f[1:])
        ne = new_element(m, g, f, 18)
        assert not ne.is_proper
        assert product(ne, inverse(ne)) == ident


def test_proper_integer_elements_have_integer_inverses():
    rng = random.Random(11)
    for m in (1, 2, 3, 4):
        e = random_proper_element(rng, m, N)
        inv = inverse(e)
        assert inv.is_integral()
        assert to_matrix(inv, N + 1).is_integral()


def test_engines_agree():
    rng = random.Random(13)
    for m in (1, 2, 3, 4):
        for _ in range(3):
            a = random_proper_element(rng, m, N)
            b = random_proper_element(rng, m, N)
            assert product(a, b) == product_direct(a, b)
            assert inverse(a) == inverse_direct(a)


def test_compressed_engine_matches_explicit_root_engine():
    # 20 random proper elements with rational coefficients: the path that
    # materializes h = (f_1...f_m)^(1/m) must agree with the block engine.
    rng = random.Random(17)
    count = 0
    while count < 20:
        m = 1 + count % 4
        a = random_rational_element(rng, m, 20)
        b = random_rational_element(rng, m, 20)
        via_root = product_via_root(a, b)
        assert product(a, b).eq_through(via_root, via_root.order)
        count += 1


def test_m1_reduction_is_classical_riordan():
    rng = random.Random(3)
    for _ in range(5):
        e = random_proper_element(rng, 1, 14)
        mat = to_matrix(e, 15)
        # classical definition: a_{n,k} = [x^n] g * f^k
        col = e.g
        for k in range(15):
            for n in range(15):
                want = col[n] if k <= n else 0
                assert mat[n, k] == want
            col = col * e.f[0]


def test_classical_embedding_at_m3():
    rng = random.Random(9)
    for _ in range(5):
        base = random_proper_element(rng, 3, 14)
        g, f = base.g, base.f[0]
        embedded = new_element(3, g, [f, f, f], 14)
        classical = new_element(1, g, [f], 14)
        assert to_matrix(embedded, 15) == to_matrix(classical, 15)


def _is_canonical(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@given(
    st.sampled_from([random_proper_element, random_rational_element]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=30, deadline=None)
def test_outputs_keep_one_coefficient_representation(make, m, seed):
    """Every returned value (series coefficients, matrix entries, derived
    sequences, determinants, parsed terms) is an int or a non-integral
    Fraction."""
    rng = random.Random(seed)
    order = 12
    a, b = make(rng, m, order), make(rng, m, order)
    w = step_series(a)
    prod, inv = product(a, b), inverse(a)
    mat_a, mat_b = to_matrix(a, order + 1), to_matrix(b, order + 1)
    series_out = [
        prod.g, *prod.f,
        inv.g, *inv.f,
        a.g.recip(),
        revert(w.shift_down(m - 1)),
        nth_root_unit(w.shift_down(m), m),
    ]
    coeffs = [c for s in series_out for c in s.coeffs]
    coeffs += [v for mat in (mat_a, mat_a @ mat_b) for row in mat.entries for v in row]
    rs = row_sums(a, order + 1)
    coeffs += rs
    coeffs += hankel_transform(rs)
    coeffs.append(bareiss_determinant([[rs[i + j + 1] for j in range(5)] for i in range(5)]))
    coeffs += diagonal_sums(a, order + 1)
    coeffs += [v for row in bivariate_table(a, order + 1) for v in row]
    coeffs += mat_a.row_sums() + (mat_a @ mat_b).row_sums()
    coeffs += left_factors(lattice_from_doc(THREEFOLD_DOC), order + 1)
    coeffs += parse_sequence("1, 4/2, 3/4")
    assert all(_is_canonical(c) for c in coeffs)


@pytest.mark.parametrize("call", [
    lambda: Series([]),
    lambda: Series.x(0),
    lambda: Series.zero(1).shift_down(3),
    lambda: nth_root_unit(Series.one(3), 0),
    lambda: aerate(Series.one(3), 0),
    lambda: aerate(Series.one(3), 2, 0, order=100),
    lambda: new_element(0, Series.one(3), [], 3),
    lambda: new_element(2, Series.one(3), [Series.x(3)], 3),
    lambda: to_matrix(identity(1, 3), 0),
    lambda: LatticeSpec(2, (((1, 1),),)),
    lambda: LatticeSpec.from_lists(1, [[[0, 1]]]),
    lambda: count_table(LatticeSpec.from_lists(1, [[[1, 1]]]), 0),
    lambda: interleave_split([1, 2], 0),
], ids=[
    "series-empty", "x-order-0", "shift-down-order", "root-index-0", "aerate-m-0",
    "aerate-order", "element-m-0", "element-f-count", "matrix-rows-0",
    "lattice-rule-count", "lattice-dn-0", "count-table-rows-0", "interleave-m-0",
])
def test_out_of_range_arguments_raise_invalid_argument(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, MRiordanError) and isinstance(info.value, ValueError)
