"""Acceptance suite: one test per criterion, one printed line per criterion."""

import random
import time

import pytest

from mriordan import (
    LatticeSpec,
    Series,
    apply_ftra,
    bivariate_table,
    count_table,
    diagonal_sums,
    evaluate_text,
    hankel_transform,
    identity,
    interleave_split,
    inverse,
    left_factors,
    new_element,
    product,
    row_sums,
    to_matrix,
    verify_against_gf,
)
from mriordan.group import column_gfs
from mriordan import golden
from mriordan.documents import element_from_doc

from conftest import random_proper_element
from oracles import (
    bivariate_expansion,
    inverse_direct,
    matrix_diagonal_sums,
    matrix_row_sums,
    product_direct,
)


def report(num, ok, label):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def e1():
    return element_from_doc(golden.EXAMPLE1_DOC)


@pytest.fixture(scope="module")
def e2():
    return element_from_doc(golden.EXAMPLE2_DOC)


@pytest.fixture(scope="module")
def e3():
    return element_from_doc(golden.EXAMPLE3_DOC)


def matches(mat, reference):
    return all(
        mat[n, k] == reference[n][k]
        for n in range(len(reference))
        for k in range(len(reference))
    )


def test_criterion_1_example1_reproduction(e1):
    start = time.perf_counter()
    ok = matches(to_matrix(e1, 9), golden.EXAMPLE1_MATRIX)
    sums = row_sums(e1, 21)
    ok = ok and sums == golden.EXAMPLE1_ROW_SUMS
    slots = interleave_split(sums, 3)
    ok = ok and slots[0] == [2**n for n in range(7)]
    ok = ok and slots[1] == [2 ** (n + 1) - 1 for n in range(7)]
    ok = ok and slots[2] == [3 * 2**n - 2 for n in range(7)]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"Example 1 matrix, row sums, interleaving ({elapsed:.3f}s)")


def test_criterion_2_example1_inverse(e1):
    inv = inverse(e1)
    want = [evaluate_text(t, 30) for t in golden.EXAMPLE1_INVERSE_EXPRS]
    ok = inv.g.eq_through(want[0], 30)
    ok = ok and all(fi.eq_through(w, 30) for fi, w in zip(inv.f, want[1:]))
    ok = ok and product(e1, inv) == identity(3, e1.order)
    ok = ok and row_sums(inv, 23) == golden.EXAMPLE1_INVERSE_ROW_SUMS
    report(2, ok, "Example 1 inverse closed form, round trip, row sums")


def test_criterion_3_ftra_fixtures(e1):
    arg = evaluate_text(golden.FTRA_ARG_EXPR, e1.order)
    got = list(apply_ftra(e1, arg).coeffs[:21])
    ok = got == golden.FTRA_EXAMPLE1_RESULT
    got_inv = list(apply_ftra(inverse(e1), arg).coeffs[:21])
    ok = ok and got_inv == golden.FTRA_EXAMPLE1_INVERSE_RESULT
    report(3, ok, "fundamental-theorem fixtures, 21 terms each")


def test_criterion_4_example2_reproduction(e2):
    ok = matches(to_matrix(e2, 9), golden.EXAMPLE2_MATRIX)
    ok = ok and row_sums(e2, 23) == golden.EXAMPLE2_ROW_SUMS
    inv = inverse(e2)
    want = [evaluate_text(t, 30) for t in golden.EXAMPLE2_INVERSE_EXPRS]
    ok = ok and inv.g.eq_through(want[0], 30)
    ok = ok and all(fi.eq_through(w, 30) for fi, w in zip(inv.f, want[1:]))
    inv_mat = to_matrix(inv, 10)
    ok = ok and matches(inv_mat, golden.EXAMPLE2_INVERSE_MATRIX)
    ok = ok and inv_mat[9, 0] == -5
    ok = ok and row_sums(inv, 21) == golden.EXAMPLE2_INVERSE_ROW_SUMS
    report(4, ok, "Example 2 matrices, row sums, Catalan-form inverse")


def test_criterion_5_hankel_claims(e2):
    slots = interleave_split(row_sums(inverse(e2), 30), 3)
    ok = hankel_transform(slots[0])[:5] == [1, 1, 1, 1, 1]
    ok = ok and hankel_transform(slots[1])[:5] == [1, 2, 5, 13, 34]
    ok = ok and hankel_transform(slots[2])[:5] == [1, 1, 1, 1, 1]
    report(5, ok, "Hankel transforms of the Example 2 inverse slots")


def test_criterion_6_example3(e3):
    inv = inverse(e3)
    ok = matches(to_matrix(inv, 10), golden.EXAMPLE3_INVERSE_MATRIX)
    ok = ok and row_sums(inv, 17) == golden.EXAMPLE3_ROW_SUMS
    spec = LatticeSpec.from_lists(
        golden.STEPSET_1UP_2DOWN_DOC["m"], golden.STEPSET_1UP_2DOWN_DOC["rules"]
    )
    ok = ok and count_table(spec, 10) == to_matrix(inv, 10)
    report(6, ok, "Example 3 inverse matrix, row sums, lattice recurrence")


def test_criterion_7_lattice_section():
    spec = LatticeSpec.from_lists(
        golden.THREEFOLD_DOC["m"], golden.THREEFOLD_DOC["rules"]
    )
    ok = matches(count_table(spec, 10), golden.THREEFOLD_MATRIX)
    ok = ok and left_factors(spec, 11) == golden.THREEFOLD_LEFT_FACTORS
    g, f1, f2, f3 = golden.lattice_column_series(21)
    ok = ok and verify_against_gf(spec, column_gfs(g, [f1, f2, f3], 6), 21).ok
    gf = evaluate_text(golden.LATTICE_LEFT_FACTOR_GF_EXPR, 20)
    ok = ok and list(gf.coeffs) == left_factors(spec, 21)
    report(7, ok, "lattice table, left factors, closed-form GFs through n=20")


def test_criterion_8_property_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    order = 36
    rows = order + 1
    ok = True
    for m in (1, 2, 3, 4):
        ident = identity(m, order)
        elements = [random_proper_element(rng, m, order) for _ in range(50)]
        mats = [to_matrix(e, rows) for e in elements]
        for i, e in enumerate(elements):
            other = elements[(i + 1) % 50]
            prod = product(e, other)
            # (a) matrix homomorphism
            ok = ok and to_matrix(prod, rows) == mats[i] @ mats[(i + 1) % 50]
            # (f) compressed engine == aerated oracle
            ok = ok and prod == product_direct(e, other)
            inv = inverse(e)
            # (b) two-sided inverse
            ok = ok and product(e, inv) == ident and product(inv, e) == ident
            ok = ok and inv == inverse_direct(e)
            # (c) bivariate expansion == matrix == bivariate table
            expansion = bivariate_expansion(e, rows)
            ok = ok and all(
                expansion[n] == [mats[i][n, k] for k in range(n + 1)]
                for n in range(rows)
            )
            ok = ok and bivariate_table(e, rows) == expansion
            # (d) generating-function sums == matrix sums
            ok = ok and row_sums(e, rows) == matrix_row_sums(e, rows)
            ok = ok and diagonal_sums(e, rows) == matrix_diagonal_sums(e, rows)
            # (e) integrality for proper integer inputs
            ok = ok and e.is_integral() and inv.is_integral()
            ok = ok and mats[i].is_integral() and to_matrix(inv, rows).is_integral()
            assert ok, f"property failure at m={m}, element {i}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(8, ok, f"50 random proper elements per m in 1..4, order 36 ({elapsed:.1f}s)")


def test_criterion_9_classical_embedding():
    rng = random.Random(77)
    ok = True
    for _ in range(10):
        base = random_proper_element(rng, 3, 11)
        g, f = base.g, base.f[0]
        at_m3 = to_matrix(new_element(3, g, [f, f, f], 11), 12)
        # classical Riordan matrix of (g, f): columns g * f^k
        col = g
        for k in range(12):
            for n in range(12):
                want = col[n] if k <= n else 0
                ok = ok and at_m3[n, k] == want
            col = col * f
        ok = ok and at_m3 == to_matrix(new_element(1, g, [f], 11), 12)
        assert ok
    report(9, ok, "(g,f,f,f) at m=3 equals the classical Riordan matrix, 10 pairs")
