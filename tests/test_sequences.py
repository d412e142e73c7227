import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mriordan import (
    InvalidArgument,
    MRiordanElement,
    OrderTooSmall,
    Series,
    bivariate_table,
    catalan_series,
    diagonal_sums,
    hankel_transform,
    identity,
    interleave_split,
    inverse,
    new_element,
    row_sums,
    to_matrix,
)
from mriordan import sequences
from mriordan.sequences import bareiss_determinant
from mriordan.series import exact_coeff

from conftest import exact_lists, random_proper_element, square_matrices, typed
from oracles import (
    bivariate_expansion,
    interleave,
    matrix_diagonal_sums,
    matrix_row_sums,
    naive_determinant,
)


def test_row_sums_example1(example1):
    got = row_sums(example1, 21)
    assert got == [1, 1, 1, 2, 3, 4, 4, 7, 10, 8, 15, 22, 16, 31, 46, 32, 63, 94, 64, 127, 190]
    assert got == matrix_row_sums(example1, 21)


def test_row_sums_example1_inverse(example1):
    got = row_sums(inverse(example1), 12)
    assert got == [1, 1, 1, 0, -1, -2, 0, 1, 4, 0, -1, -8]


def test_row_sums_example2_inverse(example2):
    got = row_sums(inverse(example2), 15)
    assert got == [1, 1, 1, 0, -1, -2, 1, 3, 5, -2, -8, -14, 6, 24, 42]


def test_row_sums_order_guard(example1):
    with pytest.raises(OrderTooSmall):
        row_sums(example1, example1.order + 2)


@pytest.mark.parametrize("sums", [row_sums, diagonal_sums])
@pytest.mark.parametrize("terms", [-2, 0])
def test_sums_need_at_least_one_term(example1, sums, terms):
    with pytest.raises(InvalidArgument) as info:
        sums(example1, terms)
    assert str(info.value) == "terms must be >= 1"


def test_diagonal_sums_identity():
    got = diagonal_sums(identity(3, 12), 10)
    assert got == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_diagonal_sums_match_matrix(example1, example2):
    for e in (example1, example2):
        assert diagonal_sums(e, 16) == matrix_diagonal_sums(e, 16)
        inv = inverse(e)
        assert diagonal_sums(inv, 16) == matrix_diagonal_sums(inv, 16)


def test_dual_path_sums_random():
    rng = random.Random(31)
    for m in (1, 2, 3, 4):
        e = random_proper_element(rng, m, 20)
        assert row_sums(e, 21) == matrix_row_sums(e, 21)
        assert diagonal_sums(e, 21) == matrix_diagonal_sums(e, 21)


COEFFS = {
    "int": (lambda rng: 1, lambda rng: rng.randint(-2, 2)),
    "rational": (
        lambda rng: rng.choice([1, -1, Fraction(2, 3), Fraction(7, 1009)]),
        lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    ),
    "mixed": (
        lambda rng: rng.choice([1, 2, Fraction(-1, 2)]),
        lambda rng: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-4, 4), rng.randint(2, 5))]),
    ),
}


def exact_element(rng, kind, m, order):
    """An element with `kind` coefficients (nonzero leading ones) built
    from its compressed components; at order 0 new_element cannot state
    the x^1 coefficient of an f_i, so only this route reaches it."""
    lead, coeff = COEFFS[kind]
    ghat = Series([lead(rng)] + [coeff(rng) for _ in range(order // m)])
    fhats = tuple(Series([lead(rng)] + [coeff(rng) for _ in range(max(order - 1, 0) // m)]) for _ in range(m))
    e = MRiordanElement(m, ghat, fhats, order)
    assert order == 0 or new_element(m, e.g, e.f, order) == e
    return e


@pytest.mark.parametrize("kind", sorted(COEFFS))
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_columns_and_sums_match_the_bivariate_expansion(kind, m):
    """to_matrix, bivariate_table, row_sums and diagonal_sums against the
    x-domain geometric expansion of the oracles, which shares no column
    code with the engine: value for value and type for type, at orders 0,
    1, below m, not divisible by m and 24, for every row and term count
    up to order + 1, and OrderTooSmall one past it."""
    rng = random.Random(60 + m)
    for order in sorted({0, 1, m - 1, m + 1, 2 * m + 1, 24}):
        e = exact_element(rng, kind, m, order)
        want = bivariate_expansion(e, order + 1)
        for rows in range(1, order + 2):
            head = want[:rows]
            assert [typed(row) for row in to_matrix(e, rows).entries] == [
                typed(row + [0] * (rows - len(row))) for row in head
            ]
            assert [typed(row) for row in bivariate_table(e, rows)] == [typed(row) for row in head]
            assert typed(row_sums(e, rows)) == typed([exact_coeff(sum(row)) for row in head])
            assert typed(diagonal_sums(e, rows)) == typed(
                [exact_coeff(sum(head[n - k][k] for k in range(n // 2 + 1))) for n in range(rows)]
            )
        for call in (to_matrix, bivariate_table, row_sums, diagonal_sums):
            with pytest.raises(OrderTooSmall):
                call(e, order + 2)


def test_bivariate_identity():
    table = bivariate_table(identity(3, 10), 8)
    for n, row in enumerate(table):
        assert row == [1 if k == n else 0 for k in range(n + 1)]


def test_bivariate_matches_matrix(example1, example2):
    for e in (example1, example2):
        rows = 12
        mat = to_matrix(e, rows)
        table = bivariate_table(e, rows)
        expansion = bivariate_expansion(e, rows)
        for n in range(rows):
            assert table[n] == [mat[n, k] for k in range(n + 1)]
            assert expansion[n] == [mat[n, k] for k in range(n + 1)]


def test_bivariate_paper_rows(example1, example2):
    row8 = bivariate_table(example1, 9)[8]
    assert row8[2] == 5 and row8[5] == 4
    assert bivariate_table(example2, 9)[8][2] == 4


def test_hankel_catalan():
    assert hankel_transform([1, 1, 2, 5, 14, 42, 132]) == [1, 1, 1, 1]


def test_hankel_output_length():
    assert len(hankel_transform([1, 2, 3, 4, 5])) == 3
    assert len(hankel_transform([1])) == 1


def test_hankel_example2_slots(example2):
    rs = row_sums(inverse(example2), 30)
    slots = interleave_split(rs, 3)
    assert slots[0][:7] == [1, 0, 1, -2, 6, -18, 57]  # signed Fine numbers
    assert slots[1][:7] == [1, -1, 3, -8, 24, -75, 243]
    assert slots[2][:7] == [1, -2, 5, -14, 42, -132, 429]  # signed C(n+1)
    assert hankel_transform(slots[0])[:5] == [1, 1, 1, 1, 1]
    assert hankel_transform(slots[1])[:5] == [1, 2, 5, 13, 34]  # F(2n+1)
    assert hankel_transform(slots[2])[:5] == [1, 1, 1, 1, 1]


@given(square_matrices(0, 5))
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_cofactor_expansion(rows):
    assert typed([bareiss_determinant(rows)]) == typed([exact_coeff(naive_determinant(rows))])


def test_bareiss_rational_entries():
    cases = [
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]],
        # zero pivots: the first needs a row swap, the second a later one
        [[0, Fraction(1, 2), 1], [Fraction(1, 3), 0, 2], [1, Fraction(7, 1009), 0]],
        [[Fraction(1, 2), Fraction(1, 3), 1], [1, Fraction(2, 3), 5], [Fraction(3, 997), 1, 0]],
        # singular: proportional rows, and a zero column below a zero pivot
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],
        [[0, Fraction(1, 2), 1], [0, Fraction(2, 3), 5], [0, 1, Fraction(-5, 1013)]],
        [[Fraction(7, 1009)]],
    ]
    for rows in cases:
        assert typed([bareiss_determinant(rows)]) == typed([exact_coeff(naive_determinant(rows))])


def test_hankel_agrees_with_naive_small():
    seq = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
    for n in range(7):
        mat = [[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]
        assert hankel_transform(seq)[n] == naive_determinant(mat)


# zero-heavy terms make zero leading minors, from which the one elimination
# hands over to a determinant per term
hankel_sequences = st.one_of(
    exact_lists(0, 24),
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]), max_size=24),
)


@given(hankel_sequences)
@example([0, 1, 2, 3, 5])  # a zero first term
@example([1, 1, 1, 2, 3])  # a zero minor, then a nonzero one
@example([1] * 9)
@example([Fraction(2, 3)])
@settings(max_examples=200, deadline=None)
def test_hankel_matches_the_determinant_of_each_term(seq):
    count = (len(seq) + 1) // 2
    want = [
        exact_coeff(naive_determinant([[seq[i + j] for j in range(n + 1)] for i in range(n + 1)]))
        for n in range(count)
    ]
    assert typed(hankel_transform(seq)) == typed(want)


def test_hankel_of_81_catalan_numbers_runs_one_elimination(monkeypatch):
    """Every leading minor of the Catalan Hankel matrices is 1, so no term
    falls back to a determinant of its own."""

    def refuse(rows):
        raise AssertionError("hankel_transform computed a term by its own determinant")

    monkeypatch.setattr(sequences, "bareiss_determinant", refuse)
    assert typed(hankel_transform(list(catalan_series(80).coeffs))) == typed([1] * 41)


def test_interleave_split_examples(example1):
    slots = interleave_split(row_sums(example1, 21), 3)
    assert slots[0] == [1, 2, 4, 8, 16, 32, 64]
    assert slots[1] == [1, 3, 7, 15, 31, 63, 127]
    assert slots[2] == [1, 4, 10, 22, 46, 94, 190]


def test_interleave_split_m1():
    assert interleave_split([3, 1, 4], 1) == [[3, 1, 4]]


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_interleave_round_trip(seq, m):
    assert interleave(interleave_split(seq, m)) == seq
