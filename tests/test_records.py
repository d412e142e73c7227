"""The package's value classes behave as the frozen (and, for
``FixtureResult``, plain) dataclasses they replace: the same constructor
parameters and defaults, equality by class and fields, the hash of the
field tuple, the ``Name(field=value, ...)`` repr and an ``AttributeError``
on assignment.  The repr strings were recorded from the dataclass
versions.  Importing the CLI loads no class generator."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mriordan import CoeffMatrix, LatticeSpec, MRiordanElement, Series, VerifyReport, identity, parse
from mriordan.expressions import Bin, Call, Neg, Num, Pow, Var
from mriordan.golden import FixtureResult

SRC = Path(__file__).resolve().parent.parent / "src"

ONE, T = Series([1, 0]), Series([0, 1])

# class, its field names in order, sample values, and for each field
# another value (None where the field cannot change alone: a matrix's
# rows fix its shape, a spec's m its number of rules)
CASES = [
    (Num, ("value", "pos"), (3, 1), (4, 2)),
    (Var, ("name", "pos"), ("x", 2), ("a", 3)),
    (Bin, ("op", "left", "right", "pos"), ("+", Num(1), Var("x"), 1), ("-", Num(2), Num(1), 0)),
    (Neg, ("arg", "pos"), (Num(1), 0), (Var("x"), 1)),
    (Pow, ("base", "exponent", "pos"), (Var("x"), 2, 1), (Num(2), 3, 0)),
    (Call, ("func", "arg", "pos"), ("sqrt", Var("x"), 0), ("catalan", Num(1), 4)),
    (MRiordanElement, ("m", "ghat", "fhats", "order"), (1, ONE, (ONE,), 1), (2, T, (T, ONE), 3)),
    (CoeffMatrix, ("rows", "entries"), (2, ((1, 0), (2, 1))), (None, ((1, 0), (Fraction(1, 2), 1)))),
    (LatticeSpec, ("m", "rules"), (1, (((1, 1),),)), (None, (((1, 0), (2, 1)),))),
    (VerifyReport, ("ok", "checked_rows", "checked_cols", "mismatch"),
     (False, 3, 2, (2, 1, 0, 1)), (True, 4, 1, None)),
    (FixtureResult, ("name", "ok", "detail"), ("a", True, "x"), ("b", False, "")),
]
FROZEN = [case for case in CASES if case[0] is not FixtureResult]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("text, want", [
    (repr(parse("x^2+1")),
     "Bin(op='+', left=Pow(base=Var(name='x', pos=0), exponent=2, pos=1), "
     "right=Num(value=1, pos=4), pos=3)"),
    (repr(parse("-sqrt(1-4*x)/(a+2)")),
     "Bin(op='/', left=Neg(arg=Call(func='sqrt', arg=Bin(op='-', left=Num(value=1, pos=6), "
     "right=Bin(op='*', left=Num(value=4, pos=8), right=Var(name='x', pos=10), pos=9), "
     "pos=7), pos=1), pos=0), right=Bin(op='+', left=Var(name='a', pos=14), "
     "right=Num(value=2, pos=16), pos=15), pos=12)"),
    (repr(LatticeSpec(2, [[(1, 1)], [[1, -1], (2, 0)]])),
     "LatticeSpec(m=2, rules=(((1, 1),), ((1, -1), (2, 0))))"),
    (repr(VerifyReport(True, 3, 2)),
     "VerifyReport(ok=True, checked_rows=3, checked_cols=2, mismatch=None)"),
    (repr(VerifyReport(False, 3, 2, (2, 1, 0, 1))),
     "VerifyReport(ok=False, checked_rows=3, checked_cols=2, mismatch=(2, 1, 0, 1))"),
    (repr(FixtureResult("a", False)), "FixtureResult(name='a', ok=False, detail='')"),
    (str(FixtureResult("a", True, "x")), "FixtureResult(name='a', ok=True, detail='x')"),
    (repr(CoeffMatrix(2, [[1, 0], [Fraction(1, 2), 3]])),
     "CoeffMatrix(rows=2, entries=((1, 0), (Fraction(1, 2), 3)))"),
    (repr(identity(2, 3)),
     "MRiordanElement(m=2, ghat=Series([1, 0]; order=1), "
     "fhats=(Series([1, 0]; order=1), Series([1, 0]; order=1)), order=3)"),
])
def test_repr_is_the_dataclass_repr(text, want):
    assert text == want


@pytest.mark.parametrize("cls, names, values, others", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(cls, names, values, others):
    obj = cls(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj == cls(**dict(zip(names, values)))
    assert [getattr(obj, name) for name in names] == list(values)
    for i, other in enumerate(others):
        if other is not None:
            changed = cls(*values[:i], other, *values[i + 1 :])
            assert obj != changed and changed != obj and not obj == changed
    assert obj != values and obj != object()


def test_records_of_different_classes_are_unequal():
    assert Num(1, 0) != Var(1, 0)
    assert Neg(Num(1), 0) != Num(Num(1), 0)
    assert {Num(1, 0), Var(1, 0)} == {Var(1, 0), Num(1, 0)}


def test_defaults():
    assert Num(1) == Num(1, 0) == Num(value=1, pos=0)
    assert Var("x") == Var("x", 0)
    assert Bin("+", Num(1), Num(2)) == Bin("+", Num(1), Num(2), 0)
    assert Neg(Num(1)).pos == Pow(Num(1), 2).pos == Call("sqrt", Num(1)).pos == 0
    assert VerifyReport(True, 1, 1).mismatch is None
    assert FixtureResult("a", True).detail == ""
    with pytest.raises(TypeError):
        Num()
    with pytest.raises(TypeError):
        Num(1, 0, 2)


@pytest.mark.parametrize("cls, names, values, others", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_records_hash_their_fields_and_refuse_assignment(cls, names, values, others):
    obj = cls(*values)
    assert hash(obj) == hash(cls(*values)) == hash(tuple(values))
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, names[0])
    assert [getattr(obj, name) for name in names] == list(values)
    assert copy.copy(obj) == obj
    if cls is not MRiordanElement:  # a Series does not unpickle
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_fixture_result_is_mutable_and_unhashable():
    result = FixtureResult("a", True)
    result.ok, result.detail = False, "value mismatch"
    assert result == FixtureResult("a", False, "value mismatch")
    with pytest.raises(TypeError):
        hash(result)


def test_cached_values_are_not_fields():
    """An element's cached x-domain series and a matrix's stride are not
    compared, hashed or printed."""
    e, fresh = identity(2, 6), identity(2, 6)
    _ = e.g, e.f, e.what  # fills the cache
    assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
    checked = CoeffMatrix(3, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    built = CoeffMatrix._built(3, checked.entries, 1)
    assert (checked._stride, built._stride) == (2, 1)
    assert checked == built and hash(checked) == hash(built) and repr(checked) == repr(built)


def test_importing_the_cli_loads_no_class_generator():
    """A CLI call is a fresh interpreter, and everything it imports is paid
    for on every call; the golden fixtures stay bound on the package."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mriordan.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        "print(mriordan.golden is sys.modules['mriordan.golden'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.splitlines() == ["[]", "True"]
