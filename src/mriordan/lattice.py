"""Brute-force lattice path counting for periodic mixed step sets.

The table t_{n,k} counts paths from (0,0) to (n,k) staying in 0 <= k <= n,
where the admissible steps into column k depend on k mod m.  This is the
independent oracle against which generating-function claims are checked:
the recurrence knows nothing about power series.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add
from typing import Sequence

from .errors import InvalidArgument, OrderTooSmall
from .group import CoeffMatrix
from .records import Frozen, _set
from .series import Series, _at_least


class LatticeSpec(Frozen):
    """Recurrence t_{n,k} = sum over rules[k % m] of t_{n-dn, k-dk}.

    Every dn must be >= 1 so the fill makes progress; boundary is
    t_{0,k} = [k = 0] and t_{n,k} = 0 outside 0 <= k <= n.
    """

    _fields = ("m", "rules")  # rules: per residue, a tuple of (dn, dk) offsets as int pairs

    def __init__(self, m: int, rules):
        try:
            rules = tuple(rules)
        except TypeError:
            raise InvalidArgument(
                f"rules must be a list of step lists, one per residue class, got {rules!r}"
            ) from None
        rules = tuple(_rule(q, rule) for q, rule in enumerate(rules))
        if len(rules) != _at_least(m, 1, "m"):
            raise InvalidArgument("need exactly one rule list per residue class")
        _set(self, "m", m)
        _set(self, "rules", rules)

    @classmethod
    def from_lists(cls, m: int, rules: Sequence[Sequence[Sequence[int]]]) -> "LatticeSpec":
        return cls(m, rules)


def _rule(q: int, rule) -> tuple:
    """rules[q], the steps into the columns k = q (mod m), as checked pairs."""
    try:
        steps = tuple(rule)
    except TypeError:
        raise InvalidArgument(
            f"rules[{q}], the steps into residue class {q}, must be a list of "
            f"(dn, dk) steps, got {rule!r}"
        ) from None
    return tuple(map(_step, steps))


def _step(step) -> tuple:
    """A rule's step as the pair (dn, dk) of checked ints."""
    try:
        dn, dk = step
    except (TypeError, ValueError):
        raise InvalidArgument(f"a lattice step must be a (dn, dk) pair, got {step!r}") from None
    return _at_least(dn, 1, "dn"), _at_least(dk, None, "dk")


def _acting_rules(spec: LatticeSpec, rows: int) -> list:
    """spec.rules without the steps that act in no table of `rows` rows: a
    step with |dk| >= rows only ever reads outside the triangle (k - dk is
    below 0, or above n - dn), and one with dn >= rows reads before row 0."""
    return [[(dn, dk) for dn, dk in rule if dn < rows and -rows < dk < rows] for rule in spec.rules]


def _padded_rows(spec: LatticeSpec, rows: int):
    """Yield (lo, d, row) for each row n < rows of the table t_{n,k}, exact
    integers: t_{n,k} is row[lo + k], and every other entry is 0.

    Every path is a sum of acting steps, so t_{n,k} is 0 unless d, the gcd
    of dn - dk over them, divides n - k (d = 0: unless k = n).  Row n fills
    one residue class mod m at a time: its targets k = n (mod d) are one
    slice of step lcm(m, d) from the first (`plan`), and for each rule
    (dn, dk) their sources are that slice shifted by dk in row n - dn.
    Every row carries `lo` zeros on the left and `hi` on the right, the
    largest shift a rule makes either way, so a source outside
    0 <= k - dk <= n - dn reads a stored zero.  Only the last max(dn) rows
    are kept for the fill.
    """
    rules = _acting_rules(spec, _at_least(rows, 1, "rows"))  # so both pads stay below rows
    m, dks = spec.m, [dk for rule in rules for _, dk in rule]
    lo, hi = max([0, *dks]), max([0, *(-dk for dk in dks)])
    depth = max([1, *(dn for rule in rules for dn, _ in rule)])
    d = gcd(*(dn - dk for rule in rules for dn, dk in rule))
    gap = d or rows  # k = n (mod rows) is k = n in a row n < rows
    step = lcm(m, gap)
    plan = [[(lo + k, rules[k % m]) for k in range(q, min(q + step, rows), gap)]
            for q in range(min(gap, rows))]
    width = lo + rows + hi
    row = [0] * width
    row[lo] = 1
    window = [row]  # rows n - depth .. n - 1
    yield lo, d, row
    for n in range(1, rows):
        row = [0] * width
        stop = lo + n + 1
        for start, rule in plan[n % gap]:  # a start past n is an empty slice
            acc = None
            for dn, dk in rule:
                if dn <= n:
                    src = window[-dn][start - dk : stop - dk : step]
                    acc = src if acc is None else list(map(add, acc, src))
            if acc is not None:
                row[start:stop:step] = acc
        if n >= depth:
            del window[0]
        window.append(row)
        yield lo, d, row


def count_table(spec: LatticeSpec, rows: int) -> CoeffMatrix:
    """Dynamic-programming fill of t_{n,k}, exact integers, with the pads
    of each row trimmed; its stride is the fill's d."""
    table = []
    for lo, d, row in _padded_rows(spec, rows):
        table.append(row[lo : lo + rows])
    return CoeffMatrix._built(rows, table, d)


def left_factors(spec: LatticeSpec, terms: int) -> list:
    """Term n counts path prefixes reaching abscissa n: row sums of the
    counting table, each summed over the k <= n with k = n (mod d) as the
    fill makes its row."""
    return [sum(row[lo + n % d : lo + n + 1 : d]) if d else row[lo + n]
            for n, (lo, d, row) in enumerate(_padded_rows(spec, _at_least(terms, 1, "terms")))]


class VerifyReport(Frozen):
    _fields = ("ok", "checked_rows", "checked_cols", "mismatch")

    def __init__(self, ok: bool, checked_rows: int, checked_cols: int,
                 mismatch: tuple | None = None):  # (n, k, expected_from_table, got_from_gf)
        _set(self, "ok", ok)
        _set(self, "checked_rows", checked_rows)
        _set(self, "checked_cols", checked_cols)
        _set(self, "mismatch", mismatch)

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
    _at_least(terms, 1, "terms")
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
