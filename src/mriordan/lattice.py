"""Brute-force lattice path counting for periodic mixed step sets.

The table t_{n,k} counts paths from (0,0) to (n,k) staying in 0 <= k <= n,
where the admissible steps into column k depend on k mod m.  This is the
independent oracle against which generating-function claims are checked:
the recurrence knows nothing about power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from .errors import InvalidArgument, OrderTooSmall
from .group import CoeffMatrix
from .series import Series


@dataclass(frozen=True)
class LatticeSpec:
    """Recurrence t_{n,k} = sum over rules[k % m] of t_{n-dn, k-dk}.

    Every dn must be >= 1 so the fill makes progress; boundary is
    t_{0,k} = [k = 0] and t_{n,k} = 0 outside 0 <= k <= n.
    """

    m: int
    rules: tuple  # tuple (per residue) of tuples of (dn, dk) source offsets

    def __post_init__(self):
        if self.m < 1 or len(self.rules) != self.m:
            raise InvalidArgument("need exactly one rule list per residue class")
        for rule in self.rules:
            for dn, dk in rule:
                if type(dn) is not int or type(dk) is not int:
                    raise TypeError("step offsets must be integers")
                if dn < 1:
                    raise InvalidArgument("every step must advance n (dn >= 1)")

    @classmethod
    def from_lists(cls, m: int, rules: Sequence[Sequence[Sequence[int]]]) -> "LatticeSpec":
        return cls(m, tuple(tuple((dn, dk) for dn, dk in rule) for rule in rules))


def _padded_rows(spec: LatticeSpec, rows: int):
    """Yield (lo, row) for each row n < rows of the table t_{n,k}, exact
    integers: t_{n,k} is row[lo + k], and every other entry is 0.

    Row n is filled one residue class r at a time: the targets k = r, r+m,
    ... <= n form one strided slice, and for each rule (dn, dk) of class r
    their sources form one strided slice of row n - dn.  Every row carries
    `lo` zeros on the left and `hi` on the right, the largest shift a rule
    makes either way, so a source outside 0 <= k - dk <= n - dn reads a
    stored zero.  Only the last max(dn) rows are kept for the fill.
    """
    if rows < 1:
        raise InvalidArgument("rows must be >= 1")
    # a rule with |dk| >= rows only ever reads outside the triangle: k - dk
    # is below 0, or above n - dn; dropping it keeps both pads below rows
    rules = [[(dn, dk) for dn, dk in rule if -rows < dk < rows] for rule in spec.rules]
    m, dks = spec.m, [dk for rule in rules for _, dk in rule]
    lo, hi = max([0, *dks]), max([0, *(-dk for dk in dks)])
    depth = max([1, *(dn for rule in rules for dn, _ in rule)])
    width = lo + rows + hi
    row = [0] * width
    row[lo] = 1
    window = [row]  # rows n - depth .. n - 1
    yield lo, row
    for n in range(1, rows):
        row = [0] * width
        for r, rule in enumerate(rules):
            start, stop = lo + r, lo + n + 1
            acc = None
            for dn, dk in rule:
                if dn <= n:
                    src = window[-dn][start - dk : stop - dk : m]
                    acc = src if acc is None else list(map(add, acc, src))
            if acc is not None:
                row[start:stop:m] = acc
        if n >= depth:
            del window[0]
        window.append(row)
        yield lo, row


def count_table(spec: LatticeSpec, rows: int) -> CoeffMatrix:
    """Dynamic-programming fill of t_{n,k}, exact integers, with the pads
    of each row trimmed."""
    table = list(_padded_rows(spec, rows))
    for lo, row in table:
        del row[:lo], row[rows:]
    return CoeffMatrix(rows, [row for _, row in table])


def left_factors(spec: LatticeSpec, terms: int) -> list:
    """Term n counts path prefixes reaching abscissa n: row sums of the
    counting table, each summed as the fill makes its row."""
    return [sum(row) for _, row in _padded_rows(spec, terms)]


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    checked_rows: int
    checked_cols: int
    mismatch: tuple | None = None  # (n, k, expected_from_table, got_from_gf)

    def __str__(self):
        if self.ok:
            return (
                f"ok: columns 0..{self.checked_cols - 1} match the counting "
                f"table through row {self.checked_rows - 1}"
            )
        n, k, want, got = self.mismatch
        return f"mismatch at (n={n}, k={k}): table has {want}, GF gives {got}"


def verify_against_gf(
    spec: LatticeSpec, column_gfs: Sequence[Series], terms: int
) -> VerifyReport:
    """Compare count_table entries with [x^n] of the supplied column GFs."""
    for col in column_gfs:
        if col.order < terms - 1:
            raise OrderTooSmall(
                f"column GF order {col.order} < {terms - 1}"
            )
    table = count_table(spec, terms)
    for k, col in enumerate(column_gfs):
        for n in range(terms):
            want = table[n, k] if k <= n else 0
            if col[n] != want:
                return VerifyReport(False, terms, len(column_gfs), (n, k, want, col[n]))
    return VerifyReport(True, terms, len(column_gfs))
