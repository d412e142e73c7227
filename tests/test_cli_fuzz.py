"""Property: whatever the verb, document, expression or flag, ``mriordan``
ends with exit code 0, 1 or 2 and no traceback, and says the same thing
when run again."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mriordan.cli import run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ELEMENT_FIXTURES = [str(FIXTURES / f"example{i}.json") for i in (1, 2, 3)]
LATTICE_FIXTURES = [str(FIXTURES / "lattice_threefold.json"), str(FIXTURES / "lattice_up1_down2.json")]

# Literals that CPython's int() refuses: one with more digits than it reads
# by default, and a digit that is not a decimal digit.  Every literal short
# enough to read stays small, so that no generated expression asks for
# unbounded work; the one large value is a generating function whose later
# coefficients have more digits than CPython prints by default.
LONG_LITERAL = "7" * 4400
SPECIALS = [LONG_LITERAL, "x^" + LONG_LITERAL, "x^\u00b2", "1/(1-" + "9" * 300 + "*x)"]
atoms = st.sampled_from(
    ["x", "x^2", "x^3", "1", "2", "3/2", "u", "y", "0", "1/0", "x^-1", "(", "+",
     "sqrt(1+4*x)", "catalan(x)", "\u00b2", LONG_LITERAL]
) | st.integers(0, 99).map(str)
exprs = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        st.tuples(inner, st.integers(-2, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map("sqrt(1+{})".format),
        inner.map("catalan(x*({}))".format),
    ),
    max_leaves=5,
)
# expressions shaped like g and f_i of an m = 1 element, so that many
# generated elements are valid and reach the group operations
g_exprs = exprs | exprs.map("1+x*({})".format) | st.sampled_from(SPECIALS)
f_exprs = exprs | exprs.map("x*(1+x*({}))".format)

element_docs = st.fixed_dictionaries(
    {"m": st.integers(1, 3) | st.sampled_from([0, True, 1.5, "1"]),
     "g": g_exprs,
     "f": st.lists(f_exprs, min_size=0, max_size=4)},
    optional={
        "order": st.integers(-1, 40) | st.just("9"),
        "let": st.lists(
            st.fixed_dictionaries({"name": st.sampled_from(["u", "y", "x", "a b"]), "expr": exprs}),
            max_size=2,
        ),
        "extra": st.just(1),
    },
)
steps = st.lists(st.tuples(st.integers(-1, 3), st.integers(-3, 3)), min_size=0, max_size=3)
lattice_docs = st.integers(1, 3).flatmap(
    lambda m: st.fixed_dictionaries(
        {"m": st.just(m), "rules": st.lists(steps, min_size=m, max_size=m) | st.just([])},
        optional={"boundary": st.sampled_from(["standard", "other"])},
    )
)
terms = st.sampled_from(["1", "-2", "3/4", "1/0", "x", LONG_LITERAL, "0"]) | st.integers(-9, 9).map(str)
sequence_texts = st.lists(terms, max_size=12).map(", ".join)
documents = (element_docs | lattice_docs).map(json.dumps) | sequence_texts | st.binary(max_size=8)

flag_values = st.integers(1, 40) | st.sampled_from([0, -1])
flags = st.lists(
    st.tuples(st.sampled_from(["--order", "--rows", "--terms", "--m", "--left-factors"]), flag_values),
    max_size=3,
)
formats = st.lists(st.sampled_from(["plain", "csv", "json"]), max_size=1)
verbs = st.sampled_from(
    ["matrix", "invert", "apply", "rowsums", "diagsums", "product", "hankel",
     "interleave", "lattice", "verify-paper", "no-such-verb"]
)
# where the verb reads its input: a fixture, the generated document (as a
# file or on stdin), a missing file, or ad-hoc --g/--f flags
sources = st.sampled_from(["fixture", "lattice", "file", "stdin", "missing", "adhoc", "adhoc"])


def _run(argv, stdin_text):
    """Exit code, stdout and stderr of one in-process CLI run.  argparse ends
    a usage error with SystemExit(2), which ``main`` hands to the shell."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


@given(
    verb=verbs, source=sources, document=documents, g=g_exprs,
    fs=st.lists(f_exprs, min_size=1, max_size=2), gf=g_exprs, flags=flags, formats=formats, second=st.sampled_from(ELEMENT_FIXTURES),
)
@settings(max_examples=120, deadline=None)
def test_cli_never_ends_in_a_traceback(verb, source, document, g, fs, gf, flags, formats, second):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc"
        path.write_bytes(document if isinstance(document, bytes) else document.encode())
        stdin_text = document.decode("latin-1") if isinstance(document, bytes) else document
        where = {
            "fixture": [ELEMENT_FIXTURES[0]],
            "lattice": [LATTICE_FIXTURES[len(fs) % 2]],
            "file": [str(path)],
            "stdin": ["-"],
            "missing": [str(Path(tmp) / "missing.json")],
            "adhoc": ["--g", g, *(arg for f in fs for arg in ("--f", f))],
        }[source]
        argv = [verb, *where]
        if verb == "product":
            argv.append(second)
        if verb == "apply":
            argv += ["--gf", gf]
        for flag, value in flags:
            argv += [flag, str(value)]
        for fmt in formats:
            argv += ["--format", fmt]

        first = _run(argv, stdin_text)
        assert first == _run(argv, stdin_text)

    code, out, err = first
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif code == 1 and verb != "verify-paper":
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif code == 2:
        assert err.startswith("usage: ")
