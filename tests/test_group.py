import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mriordan import (
    BlockProfileViolation,
    CoeffMatrix,
    InvalidArgument,
    LatticeSpec,
    MRiordanElement,
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
    to_matrix,
)
from mriordan import group, series
from mriordan.documents import lattice_from_doc, parse_sequence
from mriordan.golden import STEPSET_1UP_2DOWN_DOC, THREEFOLD_DOC
from mriordan.sequences import bareiss_determinant
from oracles import (
    inverse_direct,
    matmul_direct,
    product_direct,
    product_via_root,
    series_mul_direct,
    step_product,
    step_series_root,
)

from conftest import (
    exact_lists,
    int_coeffs,
    random_proper_element,
    random_rational_element,
    rational_coeffs,
    square_matrices,
    typed,
)

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


def aerated_step(e):
    """w = f_1 * ... * f_m = h^m: the compressed step series, aerated."""
    return aerate(e.what, e.m, 0, order=e.order)


def test_step_series(example1, example2):
    assert aerated_step(identity(3, N)) == Series.from_poly([0, 0, 0, 1], N)
    want = evaluate_text("x^3/(1-x^3)", example1.order)
    assert aerated_step(example1) == want
    want2 = evaluate_text("x^3*(1+x^3)", example2.order)
    assert aerated_step(example2) == want2


@pytest.mark.parametrize("make", [random_proper_element, random_rational_element])
def test_step_series_is_the_product_of_the_f(make):
    rng = random.Random(11)
    for m in (1, 2, 3, 4):
        for order in (m, 13, 24):
            e = make(rng, m, order)
            assert aerated_step(e) == step_product(e)


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
            assert aerated_step(e) == step_product(e)


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
    w = aerated_step(example1)
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


def _lower_triangular(rows):
    return CoeffMatrix(
        len(rows), tuple(tuple(v if k <= n else 0 for k, v in enumerate(row)) for n, row in enumerate(rows))
    )


lower_triangular_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(square_matrices(n, n), square_matrices(n, n))
)


@given(lower_triangular_pairs)
@settings(max_examples=60, deadline=None)
def test_matmul_matches_fraction_kernel(pair):
    a, b = map(_lower_triangular, pair)
    got, want = a @ b, matmul_direct(a, b)
    assert [typed(row) for row in got.entries] == [typed(row) for row in want.entries]


STRIDES = (0, 1, 2, 3, 4, 6)  # 0: nonzero entries on the diagonal only


def _strided(size, d, values):
    """A lower-triangular matrix whose entry (n, k) is values[n*size + k]
    where n = k (mod d), or n = k for d = 0, and 0 elsewhere."""
    def admitted(n, k):
        return n == k if d == 0 else n >= k and (n - k) % d == 0

    return CoeffMatrix(size, [
        [values[n * size + k] if admitted(n, k) else 0 for k in range(size)] for n in range(size)
    ])


def sparse_lists(size):
    """``exact_lists`` of the given size with about half the values zeroed,
    so that a row's first nonzero entries need not show its stride."""
    masks = st.lists(st.booleans(), min_size=size, max_size=size)
    return st.tuples(exact_lists(size, size), masks).map(lambda p: [v if keep else 0 for v, keep in zip(*p)])


strided_pairs = st.integers(min_value=0, max_value=13).flatmap(
    lambda n: st.tuples(
        st.just(n), st.sampled_from(STRIDES), st.sampled_from(STRIDES), sparse_lists(n * n), sparse_lists(n * n)
    )
)


def _ones(size, *cells):
    """Values for ``_strided``: 1 on the diagonal and at `cells`, else 0."""
    return [1 if n == k or (n, k) in cells else 0 for n in range(size) for k in range(size)]


# stride 1, but a scan that trusts the first nonzero below the diagonal, the
# first rows, or the first nonzero of a row would find 2, 3 or 2
GAPS_OF_1_SEEN_LATE = (_ones(4, (2, 0), (3, 2)), _ones(8, (3, 0), (7, 6)), _ones(5, (2, 0), (4, 0), (4, 3)))


@given(strided_pairs)
@example((0, 1, 1, [], []))
@example((4, 1, 1, GAPS_OF_1_SEEN_LATE[0], GAPS_OF_1_SEEN_LATE[0]))
@example((8, 1, 1, GAPS_OF_1_SEEN_LATE[1], GAPS_OF_1_SEEN_LATE[1]))
@example((5, 1, 1, GAPS_OF_1_SEEN_LATE[2], GAPS_OF_1_SEEN_LATE[2]))
@example((1, 0, 0, [3], [Fraction(1, 2)]))
@example((9, 0, 0, list(range(81)), [Fraction(k, 7) for k in range(81)]))
@example((12, 2, 3, [1, Fraction(-1, 3), 0] * 48, list(range(144))))
@example((12, 4, 2, [Fraction(k, 5) for k in range(144)], [2, 0, Fraction(7, 1009)] * 48))
@example((13, 6, 0, [1] * 169, [Fraction(-5, 1013)] * 169))
@settings(max_examples=80, deadline=None)
def test_strided_matmul_matches_fraction_kernel(case):
    """Operands whose nonzero entries lie on n = k (mod d) for a d of their
    own, including mismatched strides and diagonal-only operands: the
    product matches the Fraction kernel value for value and type for type,
    each operand's stride is the exact gcd of n - k over its nonzero
    entries below the diagonal, and the operands still equal and hash as
    fresh copies of themselves."""
    size, da, db, va, vb = case
    a, b = _strided(size, da, va), _strided(size, db, vb)
    got, want = a @ b, matmul_direct(a, b)
    assert [typed(row) for row in got.entries] == [typed(row) for row in want.entries]
    for mat in (a, b):
        assert mat._stride == math.gcd(*(n - k for n in range(size) for k in range(n) if mat[n, k]))
        fresh = CoeffMatrix(mat.rows, mat.entries)
        assert mat == fresh and fresh == mat and hash(mat) == hash(fresh) and repr(mat) == repr(fresh)


def _spy_on_paths(monkeypatch) -> list:
    """Record, for each @ from here on, whether it took the packed rows
    ("packed") or the dot-product loop ("loop")."""
    paths, packed_product = [], group._packed_product

    def spied(*args):
        out = packed_product(*args)
        paths.append("loop" if out is None else "packed")
        return out

    monkeypatch.setattr(group, "_packed_product", spied)
    return paths


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", [41, 61])
def test_matmul_multiplications_stay_within_the_residue_classes(monkeypatch, m, rows):
    """Element matrices are zero off n = k (mod m), so @ multiplies only
    within the classes of the common stride d: packed rows make exactly
    one product per entry of row n's class, n//d + 1, and the loop of two
    rational matrices at most rows^3/(6m^2) + rows^2, not the dense
    rows^3/6; the diagonal identity matrix needs one per row.  Counts, not
    times."""
    rng = random.Random(m)
    calls, paths = [0], _spy_on_paths(monkeypatch)

    def counted(x, y):
        calls[0] += 1
        return x * y

    monkeypatch.setattr(group, "mul", counted)
    for make in (random_proper_element, random_rational_element):
        mat_a, mat_b = (to_matrix(make(rng, m, rows - 1), rows) for _ in range(2))
        d = math.gcd(mat_a._stride, mat_b._stride)
        calls[0] = 0
        mat_a @ mat_b
        if make is random_proper_element:
            assert paths[-1] == "packed" and d % m == 0
            assert calls[0] == sum(n // d + 1 for n in range(rows))
        else:
            assert paths[-1] == "loop"
            assert calls[0] <= rows**3 / (6 * m * m) + rows**2
    calls[0] = 0
    ident = to_matrix(identity(m, rows - 1), rows)
    ident @ ident
    assert calls[0] == rows


def int_lists(size, bits):
    """`size` ints of at most `bits` bits and either sign, many of them at
    the top of that range, +-(2^(bits-1) ... 2^bits - 1), and some 0."""
    hi = 2**bits - 1
    top = st.integers(2 ** (bits - 1), hi)
    return st.lists(st.one_of(st.integers(-hi, hi), top, top.map(lambda v: -v), st.just(0)),
                    min_size=size, max_size=size)


wide_int_pairs = st.tuples(
    st.integers(min_value=0, max_value=13), st.sampled_from(STRIDES), st.sampled_from(STRIDES),
    st.integers(min_value=1, max_value=65), st.integers(min_value=1, max_value=65),
).flatmap(lambda t: st.tuples(*map(st.just, t[:3]), int_lists(t[0] ** 2, t[3]), int_lists(t[0] ** 2, t[4])))


@given(wide_int_pairs)
@example((0, 1, 1, [], []))
@example((5, 0, 0, [1] * 25, [1] * 25))
@example((1, 1, 1, [2**63 - 1], [-(2**63 - 1)]))
@example((3, 1, 1, [2**64 + 1] * 9, [-1] * 9))
@example((3, 1, 1, [2**63 - 1] * 9, [-(2**62)] * 9))
@example((3, 1, 1, [1] * 9, [2**63] * 9))
@example((3, 1, 1, [1] * 9, [-(2**63)] * 9))
@example((4, 2, 1, [Fraction(1, 3)] * 16, [5] * 16))
@example((4, 1, 2, [5] * 16, [Fraction(-7, 2)] * 16))
@example((4, 1, 1, [1, 0, 0, 0, 2, Fraction(1, 2)] + [3] * 10, list(range(16))))
@example((3, 1, 1, [1] * 9, [1, 0, 0, Fraction(1, 2), 1, 0, 1, 1, 1]))
@settings(max_examples=150, deadline=None)
def test_packed_matmul_matches_fraction_kernel(case):
    """Int matrices of up to 65-bit entries, strides mixed, sizes 0 to 13:
    @ matches the Fraction kernel value for value and type for type, and it
    packs rows exactly when every entry is an int, every entry of B is
    below 2^63 in size and bits(L) + bits(max|A|) + bits(max|B|) + 1 <= 128,
    L the longest class slice; rational and mixed operands take the loop."""
    size, da, db, va, vb = case
    a, b = _strided(size, da, va), _strided(size, db, vb)
    got, want = a @ b, matmul_direct(a, b)
    assert [typed(row) for row in got.entries] == [typed(row) for row in want.entries]
    d = math.gcd(a._stride, b._stride) or size
    packed = group._packed_product(a.entries, b.entries, d) is not None
    if not size or not all(type(v) is int for v in va + vb):
        assert not packed
    else:
        wa, wb = (max(abs(v) for row in mat.entries for v in row).bit_length() for mat in (a, b))
        assert packed == (wb < 64 and ((size - 1) // d + 1).bit_length() + wa + wb + 1 <= 128)


@pytest.mark.parametrize("width", [63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("size, d", [(3, 1), (13, 2), (13, 6)])  # longest class slice 3, 7, 3
@pytest.mark.parametrize("sign_a, sign_b", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_packed_matmul_at_the_slot_bounds(monkeypatch, width, size, d, sign_a, sign_b):
    """Every class entry of A is sign_a * (2^wa - 1) and of B sign_b *
    (2^wb - 1), with bits(L) + wa + wb + 1 = width.  The largest entry of
    the product, L * (2^wa - 1) * (2^wb - 1) with L = 2^j - 1, nearly fills
    its one-word slot at width 64 and its two-word slot at 128, and would
    overflow the slot that a bound one bit wider picks: one word at width
    65, two at 129, which takes the loop."""
    longest = (size - 1) // d + 1
    wb = min(63, (width - longest.bit_length() - 1) // 2)
    wa = width - longest.bit_length() - 1 - wb
    a = _strided(size, d, [sign_a * (2**wa - 1)] * size**2)
    b = _strided(size, d, [sign_b * (2**wb - 1)] * size**2)
    paths = _spy_on_paths(monkeypatch)
    got, want = a @ b, matmul_direct(a, b)
    assert [typed(row) for row in got.entries] == [typed(row) for row in want.entries]
    assert paths == ["packed" if width <= 128 else "loop"]
    assert abs(got[size - 1, (size - 1) % d]) == longest * (2**wa - 1) * (2**wb - 1)


@pytest.mark.parametrize("rows, m, path", [
    (37, 1, "packed"), (37, 2, "packed"), (37, 3, "packed"), (37, 4, "packed"),
    (73, 1, "loop"), (73, 2, "packed"), (73, 3, "packed"), (73, 4, "packed"),
    (145, 1, "loop"), (145, 2, "loop"), (145, 3, "packed"), (145, 4, "packed"),
])
def test_matmul_path_of_int_element_matrices(monkeypatch, rows, m, path):
    """Which path @ takes on the matrices of two random int elements (span
    2) at 37 to 145 rows, the sizes the benchmark multiplies: packed rows
    until the entries reach 2^63 or the slots would need more than two
    words.  The result equals the loop's."""
    rng = random.Random(m)
    mat_a, mat_b = (to_matrix(random_proper_element(rng, m, rows - 1), rows) for _ in range(2))
    paths = _spy_on_paths(monkeypatch)
    got = mat_a @ mat_b
    assert paths == [path]
    monkeypatch.setattr(group, "_packed_product", lambda *args: None)
    assert got == mat_a @ mat_b


@pytest.mark.parametrize("rows, entries, message", [
    (2, ((1, 0),), "expected 2 rows, got 1"),
    (2, ((1, 0), (3, 4), (5, 6)), "expected 2 rows, got 3"),
    (2, ((1, 0), (3, 4, 0)), "row 1 has 3 entries, expected 2"),
    (3, ((1, 0, 0), (1, 1), (1, 1, 1)), "row 1 has 2 entries, expected 3"),
    (2, ((1, 2), (3, 4)), "row 0 has a nonzero entry above the diagonal"),
    (3, ((1, 0, 0), (1, 1, Fraction(1, 2)), (1, 1, 1)), "row 1 has a nonzero entry above the diagonal"),
])
def test_coeff_matrix_rejects_a_bad_shape(rows, entries, message):
    with pytest.raises(InvalidArgument) as info:
        CoeffMatrix(rows, entries)
    assert str(info.value) == message


def test_coeff_matrix_normalises_its_entries():
    """Rows are stored as tuples, so list rows give the same hashable
    matrix, and entries follow the Series rule: Fraction(3, 1) is 3."""
    lists = CoeffMatrix(2, [[1, 0], [Fraction(3, 1), Fraction(1, 2)]])
    tuples = CoeffMatrix(2, ((1, 0), (3, Fraction(1, 2))))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert typed(lists.entries[1]) == [(3, int), (Fraction(1, 2), Fraction)]
    assert (lists @ lists).entries == ((1, 0), (3 + Fraction(3, 2), Fraction(1, 4)))


@pytest.mark.parametrize("entry", [0.5, Decimal("0.5"), True], ids=["float", "decimal", "bool"])
def test_coeff_matrix_rejects_inexact_entries(entry):
    with pytest.raises(TypeError) as info:
        CoeffMatrix(1, ((entry,),))
    assert str(info.value) == f"series coefficients must be int or Fraction, got {type(entry).__name__}"
    with pytest.raises(TypeError):
        CoeffMatrix(2, ((1, 0), (entry, 1)))
    # the entries are checked before the shape
    for rows, entries in ((3, ((1, 0), (entry, 1))), (2, ((1, 5), (entry, 1))), (2, ((1, 0), (entry, 1, 0)))):
        with pytest.raises(TypeError):
            CoeffMatrix(rows, entries)


@pytest.mark.parametrize("rows", [2.0, True, Fraction(2), "2"])
def test_coeff_matrix_rows_must_be_an_int(rows):
    """A float, bool or other non-int row count is refused where it enters,
    not left to fail inside @ or to be stored as the matrix's size."""
    entries = [[1]] if rows == 1 else [[1, 0], [1, 1]]  # True: a shape that would fit
    with pytest.raises(TypeError) as info:
        CoeffMatrix(rows, entries)
    assert str(info.value) == f"rows must be an int, got {type(rows).__name__}"


@pytest.mark.parametrize("build", [to_matrix, bivariate_table])
def test_element_rows_must_be_an_int(build):
    e = identity(2, 6)
    for rows in (True, 2.0):
        with pytest.raises(TypeError) as info:
            build(e, rows)
        assert str(info.value) == f"rows must be an int, got {type(rows).__name__}"


@pytest.mark.parametrize("other", [3, Fraction(1, 2), [[1]], None])
def test_matmul_with_a_non_matrix_is_a_type_error(other):
    """``@`` gives way to the other operand, so Python raises TypeError."""
    mat = to_matrix(identity(1, 4), 2)
    with pytest.raises(TypeError, match="unsupported operand"):
        mat @ other
    with pytest.raises(TypeError, match="unsupported operand"):
        other @ mat


def test_matmul_rejects_operands_of_different_sizes():
    two, three = to_matrix(identity(1, 4), 2), to_matrix(identity(1, 4), 3)
    for a, b in ((two, three), (three, two)):
        with pytest.raises(InvalidArgument) as info:
            a @ b
        assert str(info.value) == f"cannot multiply a {a.rows}-row matrix by a {b.rows}-row one"


@pytest.mark.parametrize("make", [random_proper_element, random_rational_element])
def test_matmul_of_element_matrices_matches_fraction_kernel(make):
    rng = random.Random(8)
    for m in (1, 2, 3, 4):
        a, b = make(rng, m, 14), make(rng, m, 14)
        mat_a, mat_b = to_matrix(a, 15), to_matrix(b, 15)
        got, want = mat_a @ mat_b, matmul_direct(mat_a, mat_b)
        assert [typed(row) for row in got.entries] == [typed(row) for row in want.entries]


def _on_lattice(values, v, s):
    """A compressed component: values kept at the indices v + s*j only (at v
    alone for s = 0), the rest 0."""
    kept = (i == v if s == 0 else i >= v and (i - v) % s == 0 for i in range(len(values)))
    return Series([c if keep else 0 for c, keep in zip(values, kept)])


@st.composite
def lattice_elements(draw, m, order, coeffs):
    """An element built directly, without ``new_element``, so that a
    component may be dense (s = 1), on a coarser sublattice of t (s = 2, 3),
    a monomial (s = 0: 1 for the identity), or start at t^v with v > 0 (a
    zero leading coefficient)."""
    def component(length):
        v, s = draw(st.integers(0, 2)), draw(st.integers(0, 3))
        return _on_lattice(draw(st.lists(coeffs, min_size=length, max_size=length)), v, s)

    ghat = component(order // m + 1)
    return MRiordanElement(m, ghat, tuple(component((order - 1) // m + 1) for _ in range(m)), order)


@st.composite
def lattice_element_pairs(draw):
    coeffs = draw(st.sampled_from([int_coeffs, rational_coeffs]))
    a_m, b_m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    order = draw(st.integers(4, 16))
    a, b = draw(lattice_elements(a_m, order, coeffs)), draw(lattice_elements(b_m, order, coeffs))
    return a, b, draw(st.integers(1, order + 1))


def _cached_stride_divides_the_scan(mat):
    cached = mat.__dict__["_stride"]
    scanned = CoeffMatrix(mat.rows, mat.entries)._stride
    assert scanned % cached == 0 if cached else scanned == 0


def _monomials(m, order, ghat, *fhats):
    """An element whose components are the monomials c*t^v of the given
    (c, v) pairs."""
    def monomial(c, v, length):
        return _on_lattice([c] * length, v, 0)

    fhats = tuple(monomial(*fh, (order - 1) // m + 1) for fh in fhats)
    return MRiordanElement(m, monomial(*ghat, order // m + 1), fhats, order)


@given(lattice_element_pairs())
@example((identity(2, 12), identity(2, 12), 13))
@example((identity(3, 12), _monomials(3, 12, (1, 0), (1, 0), (2, 1), (1, 0)), 13))
@example((_monomials(1, 12, (1, 0), (1, 1)), _monomials(2, 12, (1, 1), (1, 0), (1, 0)), 13))
@settings(max_examples=120, deadline=None)
def test_builders_cache_a_divisor_of_the_scanned_stride(case):
    """The stride that to_matrix and @ store without a scan divides the one
    the public constructor's scan finds on a fresh copy, and is 0 only where
    that one is: products on it match the Fraction kernel."""
    a, b, rows = case
    mat_a, mat_b = to_matrix(a, rows), to_matrix(b, rows)
    for mat in (mat_a, mat_b):
        _cached_stride_divides_the_scan(mat)
    got = mat_a @ mat_b
    _cached_stride_divides_the_scan(got)
    for lhs, rhs in ((mat_a, mat_b), (got, mat_a), (mat_b, got)):
        want = matmul_direct(lhs, rhs)
        assert [typed(row) for row in (lhs @ rhs).entries] == [typed(row) for row in want.entries]


@st.composite
def lattice_table_pairs(draw):
    """Two random step sets of one modulus: m = 1..3, dn = 1..2, dk = -4..3
    and 0-3 steps a class; and a table size of 1..14 rows."""
    m = draw(st.integers(1, 3))
    step = st.tuples(st.integers(1, 2), st.integers(-4, 3))
    specs = [LatticeSpec.from_lists(m, draw(st.lists(st.lists(step, max_size=3), min_size=m, max_size=m)))
             for _ in range(2)]
    return *specs, draw(st.integers(1, 14))


THREEFOLD = lattice_from_doc(THREEFOLD_DOC)
UP1_DOWN2 = lattice_from_doc(STEPSET_1UP_2DOWN_DOC)
DIAGONAL_STEPS = LatticeSpec.from_lists(2, [[(1, 1)], [(1, 1), (2, 2)]])  # stride 0
NO_STEPS = LatticeSpec.from_lists(1, [[]])
FAR_STEPS = LatticeSpec.from_lists(2, [[(1, 1), (1, -6)], [(2, 7), (1, 0)]])  # |dk| >= rows


@given(lattice_table_pairs())
@example((THREEFOLD, UP1_DOWN2, 14))
@example((UP1_DOWN2, UP1_DOWN2, 13))
@example((DIAGONAL_STEPS, UP1_DOWN2, 9))
@example((NO_STEPS, THREEFOLD, 5))
@example((FAR_STEPS, DIAGONAL_STEPS, 5))
@settings(max_examples=120, deadline=None)
def test_count_table_stores_a_divisor_of_the_scanned_stride(case):
    """count_table stores the gcd of dn - dk over its steps as the table is
    built; it divides the stride a fresh copy finds, and products on it
    match the Fraction kernel."""
    spec_t, spec_u, rows = case
    t, u = count_table(spec_t, rows), count_table(spec_u, rows)
    assert "_stride" in t.__dict__ and "_stride" in u.__dict__
    _cached_stride_divides_the_scan(t)
    _cached_stride_divides_the_scan(u)
    for lhs, rhs in ((t, t), (t, u)):
        want = matmul_direct(lhs, rhs)
        assert [typed(row) for row in (lhs @ rhs).entries] == [typed(row) for row in want.entries]


def test_builders_make_no_checked_matrix(monkeypatch):
    """to_matrix, @, count_table and bivariate_table do not run the public
    constructor's checks; what they build equals, hashes and prints as the
    checked matrix of the same rows, with the same entry types."""
    calls = [0]
    checked = CoeffMatrix.__init__

    def counted(self, *args):
        calls[0] += 1
        checked(self, *args)

    monkeypatch.setattr(CoeffMatrix, "__init__", counted)
    rng = random.Random(16)
    spec = lattice_from_doc(THREEFOLD_DOC)
    for make in (random_proper_element, random_rational_element):
        for m in (1, 2, 3):
            e = make(rng, m, 14)
            built = [to_matrix(e, 15), count_table(spec, 15)]
            built.append(built[0] @ built[0])
            bivariate_table(e, 15)
            assert calls[0] == 0
            for mat in built:
                public = CoeffMatrix(mat.rows, [list(row) for row in mat.entries])
                assert mat == public and public == mat
                assert hash(mat) == hash(public) and repr(mat) == repr(public)
                assert [typed(row) for row in mat.entries] == [typed(row) for row in public.entries]
                assert all(type(v) is int or v.denominator != 1 for row in mat.entries for v in row)
            calls[0] = 0


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


@pytest.mark.parametrize("make", [random_proper_element, random_rational_element])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_engines_agree_below_m_and_where_m_does_not_divide(make, m):
    rng = random.Random(40 + m)
    for order in [*range(1, 2 * m + 2), 3 * m + 1, 17]:
        a, b = make(rng, m, order), make(rng, m, order)
        for got, want in ((product(a, b), product_direct(a, b)), (inverse(a), inverse_direct(a))):
            assert got == want
            assert [typed(s.coeffs) for s in (got.g, *got.f)] == [typed(s.coeffs) for s in (want.g, *want.f)]


def test_rational_product_makes_no_exact_coefficient(monkeypatch):
    """A product keeps every intermediate series as numerators over one
    denominator: no exact coefficient is made until the result is read,
    and reading it gives the values and types of the Fraction engine."""
    rng = random.Random(24)
    a, b = random_rational_element(rng, 3, 24), random_rational_element(rng, 3, 24)
    calls = [0]
    ratio = series.exact_ratio

    def counted(num, den):
        calls[0] += 1
        return ratio(num, den)

    monkeypatch.setattr(series, "exact_ratio", counted)
    got = product(a, b)
    assert calls[0] == 0
    want = product_direct(a, b)
    assert [typed(s.coeffs) for s in (got.g, *got.f)] == [typed(s.coeffs) for s in (want.g, *want.f)]


def count_products(monkeypatch) -> list:
    """Record each product of numerators once, by its number of
    coefficients: a ``series._convolve`` call made outside a product chain,
    or one step of a ``series._product_chain``, packed or not."""
    sizes, inside = [], [False]
    convolve, product_chain = series._convolve, series._product_chain

    def counted_convolve(a, b, n):
        if not inside[0]:
            sizes.append(n + 1)
        return convolve(a, b, n)

    def counted_chain(*args):
        steps = product_chain(*args)
        while True:
            inside[0] = True
            try:
                nums, den = next(steps)
            except StopIteration:
                return
            finally:
                inside[0] = False
            sizes.append(len(nums))
            yield nums, den

    monkeypatch.setattr(series, "_convolve", counted_convolve)
    monkeypatch.setattr(series, "_product_chain", counted_chain)
    return sizes


@pytest.mark.parametrize("m, order", [(1, 144), (2, 288), (4, 288), (3, 100)])
def test_product_and_inverse_convolutions_scale_with_the_root_of_the_order(monkeypatch, m, order):
    """product shares the powers of the step series across its m+1
    substitutions (about (m+2)*sqrt(n) series products, not (m+1)*n), and
    inverse builds the powers of t/what once (fewer than n products, not
    (m+2)*n).  A product is a _convolve call or a step of a product chain.
    Counts, not times, so the bound does not depend on the host."""
    rng = random.Random(m)
    a, b = random_proper_element(rng, m, order), random_proper_element(rng, m, order)
    n = a.what.order
    products = count_products(monkeypatch)
    product(a, b)
    assert 0 < len(products) <= 3 * (m + 2) * math.isqrt(n + 1)
    products.clear()
    inverse(a)
    assert 0 < len(products) <= n


def test_element_operations_build_no_x_domain_views():
    """Every operation runs on the compressed components: none fills the
    cached x-domain views g and f of its operands."""
    rng = random.Random(23)
    for m in (1, 2, 3, 4):
        a, b = random_proper_element(rng, m, 20), random_rational_element(rng, m, 20)
        G = aerate(Series([1, 2, -1, 3, 1, 1, 2, 1, 1, 1, 1, 2, 1, 3, 1, 1, 1, 1, 2, 1, 1]), m, 0, order=20)
        product(a, b), inverse(a), inverse(b), apply_ftra(b, G)
        for e in (a, b):
            to_matrix(e, 21), bivariate_table(e, 21), row_sums(e, 21), diagonal_sums(e, 21)
            assert "g" not in e.__dict__ and "f" not in e.__dict__


@pytest.mark.parametrize("m, order, rows", [(1, 60, 61), (2, 60, 61), (3, 100, 101), (4, 100, 50), (5, 30, 31)])
def test_to_matrix_convolutions_stay_within_the_columns(monkeypatch, m, order, rows):
    """Column k needs its compressed series only through t-order
    (rows-1-k)//m, so the products of to_matrix (steps of its product
    chain, packed or on _convolve) make exactly (rows-1-k)//m + 1
    coefficients for each column k >= 1, at most rows^2/(2m) + rows in
    all.  Counts, not times."""
    e = random_proper_element(random.Random(m), m, order)
    products = count_products(monkeypatch)
    to_matrix(e, rows)
    assert products == [(rows - 1 - k) // m + 1 for k in range(1, rows)]
    assert sum(products) <= rows * rows / (2 * m) + rows


@given(st.sampled_from([random_proper_element, random_rational_element]), st.integers(1, 4),
       st.integers(1, 30), st.sampled_from([2, 2**12, 2**40]), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_to_matrix_matches_the_fraction_column_products(make, m, order, span, seed):
    """Column k of to_matrix is g f_1 ... f_k (the f_i in cyclic order), by
    Fraction products.  Integer spans of 2, 2^12 and 2^40 make the column
    chain pack until its columns run short, hand off to _convolve after
    two or three steps, or never pack."""
    rng = random.Random(seed)
    e = make(rng, m, order, span) if make is random_proper_element else make(rng, m, order)
    mat = to_matrix(e, order + 1)
    col = e.g
    for k in range(order + 1):
        assert typed([mat[n, k] for n in range(k, order + 1)]) == typed(col.coeffs[k:])
        col = series_mul_direct(col, e.f[k % m])


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
    w = aerated_step(a)
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
