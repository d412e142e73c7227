import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mriordan import (
    InvalidArgument,
    LatticeSpec,
    OrderTooSmall,
    Series,
    catalan_series,
    count_table,
    evaluate_text,
    left_factors,
    verify_against_gf,
)
from mriordan import lattice
from mriordan.golden import (
    STEPSET_1UP_2DOWN_DOC,
    THREEFOLD_DOC,
    THREEFOLD_LEFT_FACTORS,
    THREEFOLD_MATRIX,
    lattice_column_series,
)
from mriordan.group import column_gfs
from mriordan.series import aerate

from oracles import count_table_direct


def threefold():
    return LatticeSpec.from_lists(THREEFOLD_DOC["m"], THREEFOLD_DOC["rules"])


def up1_down2():
    return LatticeSpec.from_lists(
        STEPSET_1UP_2DOWN_DOC["m"], STEPSET_1UP_2DOWN_DOC["rules"]
    )


def test_threefold_table_matches_reference():
    table = count_table(threefold(), 10)
    for n in range(10):
        for k in range(10):
            assert table[n, k] == THREEFOLD_MATRIX[n][k]
    assert table[4, 0] == 3
    assert table[5, 1] == 13
    assert table[7, 3] == 33
    assert table[9, 4] == 149


def test_up1_down2_entries():
    table = count_table(up1_down2(), 10)
    assert table[6, 0] == 3
    assert table[8, 2] == 12
    assert table[9, 0] == 12
    assert table[9, 3] == 18


def test_pure_dyck_column0_is_aerated_catalan():
    spec = LatticeSpec.from_lists(1, [[[1, 1], [1, -1]]])
    table = count_table(spec, 13)
    want = aerate(catalan_series(6), 2, 0)
    assert [table[n, 0] for n in range(13)] == list(want.coeffs)


def test_empty_rules_count_only_the_empty_path():
    spec = LatticeSpec.from_lists(1, [[]])
    assert left_factors(spec, 5) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("call", [count_table, left_factors])
@pytest.mark.parametrize("rows", [0, -3])
def test_tables_need_at_least_one_row(call, rows):
    with pytest.raises(InvalidArgument) as info:
        call(threefold(), rows)
    assert str(info.value) == "rows must be >= 1"


def test_steps_must_advance():
    with pytest.raises(ValueError):
        LatticeSpec.from_lists(1, [[[0, 1]]])
    with pytest.raises(ValueError):
        LatticeSpec.from_lists(2, [[[1, 1]]])


def test_left_factors_threefold():
    assert left_factors(threefold(), 11) == THREEFOLD_LEFT_FACTORS


def test_verify_degenerate_diagonal():
    spec = LatticeSpec.from_lists(1, [[[1, 1]]])
    cols = column_gfs(Series.one(12), [Series.x(12)], 6)
    report = verify_against_gf(spec, cols, 12)
    assert report.ok
    table = count_table(spec, 8)
    assert all(table[n, k] == (1 if n == k else 0) for n in range(8) for k in range(8))


def test_verify_threefold_columns():
    g, f1, f2, f3 = lattice_column_series(21)
    report = verify_against_gf(threefold(), column_gfs(g, [f1, f2, f3], 6), 21)
    assert report.ok, str(report)


def test_verify_reports_first_mismatch():
    spec = LatticeSpec.from_lists(1, [[[1, 1]]])
    wrong = [Series.one(10), evaluate_text("x+x^2", 10)]
    report = verify_against_gf(spec, wrong, 10)
    assert not report.ok
    assert report.mismatch == (2, 1, 0, 1)
    assert "mismatch" in str(report)


def test_verify_order_guard():
    spec = LatticeSpec.from_lists(1, [[[1, 1]]])
    with pytest.raises(OrderTooSmall):
        verify_against_gf(spec, [Series.one(4)], 10)


def test_left_factor_gf_matches_counting():
    from mriordan.golden import LATTICE_LEFT_FACTOR_GF_EXPR

    gf = evaluate_text(LATTICE_LEFT_FACTOR_GF_EXPR, 25)
    assert list(gf.coeffs) == left_factors(threefold(), 26)


def test_table_prefix_stability():
    # growing the table must not change earlier entries
    small = count_table(threefold(), 6)
    large = count_table(threefold(), 12)
    for n in range(6):
        for k in range(6):
            assert small[n, k] == large[n, k]


@st.composite
def lattice_specs(draw):
    """Random step sets: m = 1..5, up to four rules a class, dn = 1..4 and
    dk = -6..6, so that dk > dn and |dk| > rows both occur."""
    m = draw(st.integers(min_value=1, max_value=5))
    step = st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=-6, max_value=6))
    rules = draw(st.lists(st.lists(step, max_size=4), min_size=m, max_size=m))
    return LatticeSpec.from_lists(m, rules)


FOUR_BACK = LatticeSpec.from_lists(2, [[(4, 0), (1, 1)], [(1, 1), (4, 2), (2, -1)]])


@given(lattice_specs(), st.integers(min_value=1, max_value=40))
# rules whose |dk| is far past any table only ever read outside the triangle
@example(LatticeSpec.from_lists(2, [[(1, 1), (1, 0), (1, 10**9)], [(1, 1), (1, -1), (2, -10**9)]]), 20)
@example(LatticeSpec.from_lists(2, [[(1, 1), (1, 0), (1, -10**30)], [(1, 1), (1, -1), (1, 10**30)]]), 20)
# the fill keeps the last four rows: fewer rows than that, as many, and more
@example(FOUR_BACK, 1)
@example(FOUR_BACK, 2)
@example(FOUR_BACK, 3)
@example(FOUR_BACK, 4)
@example(FOUR_BACK, 5)
@settings(max_examples=200, deadline=None)
def test_count_table_matches_the_entry_by_entry_fill(spec, rows):
    want = count_table_direct(spec, rows)
    got = count_table(spec, rows)
    assert got.entries == want.entries
    assert all(type(v) is int for row in got.entries for v in row)
    assert left_factors(spec, rows) == want.row_sums()


@pytest.mark.parametrize("spec", [threefold, up1_down2])
@pytest.mark.parametrize("rows", [1, 50, 120])
def test_left_factors_build_no_table(monkeypatch, spec, rows):
    want = count_table_direct(spec(), rows).row_sums()

    def refuse(*args):
        raise AssertionError("left_factors built a CoeffMatrix")

    monkeypatch.setattr(lattice, "CoeffMatrix", refuse)
    got = left_factors(spec(), rows)
    assert got == want
    assert all(type(v) is int for v in got)
