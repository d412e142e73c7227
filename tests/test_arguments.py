"""Every count, order, modulus, shift and row parameter of the public API is
checked where it enters, by ``series._at_least``: anything but an ``int``
(a ``bool`` or a float too) is a ``TypeError`` that names the parameter,
and a value below its bound an ``InvalidArgument`` that names it.

The parameters are found by name, so a count parameter added later to a
public callable or method is covered without editing this file; a callable
whose other parameters have no valid value below fails with a ``KeyError``
naming the missing one."""

import inspect
import re

import pytest

import mriordan
from mriordan import (
    InvalidArgument,
    LatticeSpec,
    MRiordanElement,
    Series,
    count_table,
    identity,
    new_element,
    parse,
    to_matrix,
)

COUNT_NAMES = {"m", "order", "rows", "terms", "k", "shift", "residue"}

# The record that new_element, product and inverse build: its fields are
# not validated, new_element is.
NOT_VALIDATED = {MRiordanElement}

E = identity(2, 6)
RULES = (((1, 1),), ((1, -1),))
VALID = {
    "m": 2, "order": 6, "rows": 3, "terms": 4, "k": 0, "shift": 0, "residue": 0,
    "value": 1, "coeffs": [1, 2], "entries": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "rules": RULES, "spec": LatticeSpec(2, RULES), "e": E, "column_gfs": [],
    "s": Series.one(6), "u": Series.one(6), "g": Series.one(6), "f": [Series.x(6)] * 2,
    "seq": [1, 2, 3, 4], "text": "1 + x", "node": parse("1 + x"), "bindings": {},
}
INSTANCES = {Series: Series([1, 2, 3]), MRiordanElement: E, mriordan.CoeffMatrix: to_matrix(E, 3)}


def _public_callables():
    """(label, getter) for every public callable of ``mriordan.__all__``:
    the functions, the classes (their constructors) and the public methods
    the package's classes define.  Exceptions carry no counts."""
    for name in mriordan.__all__:
        obj = getattr(mriordan, name)
        if inspect.ismodule(obj) or not callable(obj):
            continue
        if not inspect.isclass(obj):
            yield name, lambda obj=obj: obj
            continue
        if issubclass(obj, Exception):
            continue
        if obj not in NOT_VALIDATED:
            yield name, lambda obj=obj: obj
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and isinstance(member, (classmethod, staticmethod)):
                yield f"{name}.{attr}", lambda obj=obj, attr=attr: getattr(obj, attr)
            elif not attr.startswith("_") and inspect.isfunction(member):
                yield f"{name}.{attr}", lambda obj=obj, attr=attr: getattr(INSTANCES[obj], attr)


def _count_cases():
    cases = []
    for label, get in _public_callables():
        params = inspect.signature(get()).parameters
        cases += [(label, get, p) for p in params if p in COUNT_NAMES]
    return cases


CASES = _count_cases()


def _ids(cases):
    return [f"{label}-{param}" for label, _, param in cases]


def _kwargs(fn, **given):
    """Valid values for the required parameters of fn (``other`` is the
    instance itself), and ``given``."""
    out = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name in given:
            out[p.name] = given[p.name]
        elif p.default is inspect.Parameter.empty:
            out[p.name] = getattr(fn, "__self__", None) if p.name == "other" else VALID[p.name]
    return out


def test_the_walk_finds_the_count_parameters():
    found = {(label, p) for label, _, p in CASES}
    assert {("identity", "m"), ("identity", "order"), ("new_element", "order"), ("count_table", "rows"),
            ("LatticeSpec", "m"), ("Series.truncate", "order"), ("Series.shift_up", "k"),
            ("compress", "residue"), ("aerate", "shift"), ("evaluate", "order")} <= found
    assert not any(label == "MRiordanElement" for label, _ in found)


@pytest.mark.parametrize("label, get, param", CASES, ids=_ids(CASES))
def test_count_parameters_refuse_non_ints(label, get, param):
    """The call goes through with valid values, and a bool or a float in
    the count's place is a TypeError that names it."""
    fn = get()
    fn(**_kwargs(fn, **{param: VALID[param]}))
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError) as info:
            fn(**_kwargs(fn, **{param: bad}))
        assert str(info.value) == f"{param} must be an int, got {type(bad).__name__}"


@pytest.mark.parametrize("label, get, param", CASES, ids=_ids(CASES))
def test_count_parameters_refuse_values_below_their_bound(label, get, param):
    fn = get()
    with pytest.raises(InvalidArgument) as info:
        fn(**_kwargs(fn, **{param: -1}))
    assert re.fullmatch(rf"{param} must be >= \d+, got -1", str(info.value))


@pytest.mark.parametrize("call, name", [
    (lambda: identity(True, 4), "m"),
    (lambda: identity(2.0, 4), "m"),
    (lambda: identity(2, True), "order"),
    (lambda: new_element(2, Series.one(4), [Series.x(4)] * 2, order=2.0), "order"),
    (lambda: count_table(LatticeSpec(1, (((1, 1),),)), True), "rows"),
    (lambda: LatticeSpec(1.0, (((1, 1),),)), "m"),
], ids=["identity-m-bool", "identity-m-float", "identity-order-bool", "new-element-order-float",
        "count-table-rows-bool", "lattice-spec-m-float"])
def test_no_bool_or_float_count_is_stored(call, name):
    """A bool m was stored and written to a document that could not be read
    back; a float m failed inside list arithmetic."""
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value).startswith(f"{name} must be an int, got ")
