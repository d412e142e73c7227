import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mriordan import Series, evaluate_text, identity, inverse
from mriordan.cli import build_parser, run
from mriordan.documents import (
    DocumentError,
    element_from_doc,
    element_to_doc,
    element_to_json,
    lattice_from_doc,
    load_element,
    load_lattice,
    parse_sequence,
    series_to_expr,
)
from mriordan import golden
from mriordan.golden import EXAMPLE1_DOC, THREEFOLD_DOC

from conftest import cli_verbs, random_proper_element, random_rational_element

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_fixture_files_match_embedded_docs():
    loaded = load_element(FIXTURES / "example1.json")
    assert loaded == element_from_doc(EXAMPLE1_DOC)
    spec = load_lattice(FIXTURES / "lattice_threefold.json")
    assert spec.m == THREEFOLD_DOC["m"]


@pytest.mark.parametrize("name, doc", [
    ("example1.json", golden.EXAMPLE1_DOC),
    ("example2.json", golden.EXAMPLE2_DOC),
    ("example3.json", golden.EXAMPLE3_DOC),
    ("lattice_threefold.json", golden.THREEFOLD_DOC),
    ("lattice_up1_down2.json", golden.STEPSET_1UP_2DOWN_DOC),
])
def test_fixture_files_equal_golden_docs(name, doc):
    """The fixture files (read by the CLI) and the golden constants (read by
    verify-paper) are two copies of the same documents."""
    assert json.loads((FIXTURES / name).read_text(encoding="utf-8")) == doc


def test_let_bindings_evaluate_in_order():
    doc = {
        "m": 2,
        "order": 10,
        "let": [
            {"name": "u", "expr": "1/(1-x^2)"},
            {"name": "v", "expr": "u*u"},
        ],
        "g": "v",
        "f": ["x*u", "x*v"],
    }
    e = element_from_doc(doc)
    assert e.g == evaluate_text("1/(1-x^2)^2", 10)
    assert e.f[0] == evaluate_text("x/(1-x^2)", 10)


def test_reserved_binding_name_rejected():
    doc = dict(EXAMPLE1_DOC, let=[{"name": "sqrt", "expr": "1"}])
    with pytest.raises(DocumentError):
        element_from_doc(doc)


def test_missing_keys_rejected():
    with pytest.raises(DocumentError):
        element_from_doc({"m": 3})


def test_series_to_expr_round_trip():
    rng = random.Random(2)
    from fractions import Fraction

    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)]
    s = Series(coeffs)
    assert evaluate_text(series_to_expr(s), s.order) == s
    assert series_to_expr(Series.zero(3)) == "0"
    assert series_to_expr(Series.from_poly([1, -1], 3)) == "1-x"


def test_element_doc_round_trip(example1):
    inv = inverse(example1)
    again = element_from_doc(element_to_doc(inv))
    assert again == inv


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("make", [random_proper_element, random_rational_element])
def test_random_element_doc_round_trip(m, make):
    rng = random.Random(m)
    for order in (m, rng.randint(m, 40), 120):
        e = make(rng, m, order)
        assert element_from_doc(element_to_doc(e)) == e


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_element_json_round_trip(m):
    """What ``element_to_json`` writes, ``element_from_doc`` reads back."""
    rng = random.Random(m)
    for e in (identity(m, 12), random_proper_element(rng, m, 30), random_rational_element(rng, m, 30)):
        assert element_from_doc(json.loads(element_to_json(e))) == e


def test_reading_a_polynomial_doc_builds_no_series_per_term(monkeypatch):
    """The terms of an inverse's document are added in place: reading it
    makes fewer Series than it has terms, as many at order 240 as at 120."""
    counts = {}
    for order in (120, 240):
        doc = element_to_doc(inverse(element_from_doc(EXAMPLE1_DOC, order)))
        terms = sum(len(re.findall(r"[^+-]+", text)) for text in [doc["g"], *doc["f"]])
        calls = [0]
        init, over = Series.__init__, Series._over.__func__

        def counted_init(self, coeffs):
            calls[0] += 1
            init(self, coeffs)

        def counted_over(cls, nums, den):
            calls[0] += 1
            return over(cls, nums, den)

        with monkeypatch.context() as patch:
            patch.setattr(Series, "__init__", counted_init)
            patch.setattr(Series, "_over", classmethod(counted_over))
            element_from_doc(doc)
        assert calls[0] < terms
        counts[order] = calls[0]
    assert counts[120] == counts[240]


def test_parse_sequence_formats():
    assert parse_sequence("1, 2, 3") == [1, 2, 3]
    assert parse_sequence("1\n-2\n3/2\n") == [1, -2, parse_sequence("3/2")[0]]
    with pytest.raises(DocumentError):
        parse_sequence("1, two")
    with pytest.raises(DocumentError, match="1/0"):
        parse_sequence("1, 1/0")


def test_bad_lattice_doc():
    with pytest.raises(DocumentError):
        load_lattice(FIXTURES / "example1.json")
    for doc, message in [
        ([1], "must be a JSON object"),
        ({"m": 1}, "missing 'rules'"),
        (dict(LATTICE_DOC, boundary="periodic"), "unsupported boundary 'periodic'"),
        (dict(LATTICE_DOC, boundary=None), "unsupported boundary None"),
    ]:
        with pytest.raises(DocumentError, match=message):
            lattice_from_doc(doc)


@pytest.mark.parametrize("content", [b'{"m": 1,', b"\xff\xfe\xff"])
def test_malformed_json_rejected(content, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(DocumentError):
        load_element(bad)


def test_let_entry_without_name_or_expr_rejected():
    for entry in ({"expr": "1+x"}, {"name": "u"}):
        with pytest.raises(DocumentError):
            element_from_doc(dict(EXAMPLE1_DOC, let=[entry]))


# -- CLI ----------------------------------------------------------------


def test_cli_matrix_output(capsys):
    assert run(["matrix", str(FIXTURES / "example1.json"), "--rows", "4"]) == 0
    out = capsys.readouterr().out
    assert out == "1 0 0 0\n0 1 0 0\n0 0 1 0\n1 0 0 1\n"


def test_cli_invert_pipes_into_matrix(capsys, monkeypatch):
    assert run(["invert", str(FIXTURES / "example1.json"), "--order", "12"]) == 0
    doc_json = capsys.readouterr().out
    json.loads(doc_json)  # must be valid ElementDoc JSON
    monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
    assert run(["matrix", "-", "--rows", "9"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[8].split() == ["0", "0", "7", "0", "0", "-4", "0", "0", "1"]


def test_cli_product_of_element_and_inverse_is_identity(capsys, tmp_path):
    assert run(["invert", str(FIXTURES / "example2.json"), "--order", "15"]) == 0
    inv_doc = capsys.readouterr().out
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(inv_doc)
    assert run([
        "product", str(FIXTURES / "example2.json"), str(inv_path), "--order", "15",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g"] == "1"
    assert doc["f"] == ["x", "x", "x"]


def test_cli_rowsums_formats(capsys):
    assert run(["rowsums", str(FIXTURES / "example1.json"), "--terms", "6"]) == 0
    assert capsys.readouterr().out == "1\n1\n1\n2\n3\n4\n"
    assert run([
        "rowsums", str(FIXTURES / "example1.json"), "--terms", "6", "--format", "csv",
    ]) == 0
    assert capsys.readouterr().out == "1, 1, 1, 2, 3, 4\n"


def test_cli_diagsums(capsys):
    assert run(["diagsums", str(FIXTURES / "example1.json"), "--terms", "8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_cli_apply(capsys):
    assert run([
        "apply", str(FIXTURES / "example1.json"),
        "--gf", "(1-x^3)/(1+x^3)", "--terms", "7", "--format", "csv",
    ]) == 0
    assert capsys.readouterr().out == "1, 0, 0, -1, 0, 0, -1\n"


def test_cli_apply_needs_the_order_for_its_terms(capsys):
    argv = ["apply", "--g", "1", "--f", "x", "--gf", "1+x", "--order", "5", "--format", "csv"]
    assert run([*argv, "--terms", "100"]) == 1
    assert capsys.readouterr() == ("", "error: 100 terms need order >= 99\n")
    assert run([*argv, "--terms", "6"]) == 0
    assert capsys.readouterr() == ("1, 1, 0, 0, 0, 0\n", "")


@pytest.mark.parametrize("g, offset", [("1" * 5000, 0), ("x^" + "9" * 5000, 2)],
                         ids=["literal", "exponent"])
def test_cli_over_long_literal_exits_1(g, offset, capsys):
    """Reading keeps CPython's int-string conversion limit."""
    assert run(["matrix", "--g", g, "--f", "x"]) == 1
    assert capsys.readouterr() == (
        "", f"error: integer literal of 5000 digits is too long (at offset {offset})\n"
    )


@pytest.mark.parametrize("argv, last", [
    (["matrix", "--rows", "50"], "1" + "0" * 4900),
    (["rowsums", "--terms", "50"], "1" + ("0" * 99 + "1") * 49),
], ids=["matrix", "rowsums"])
def test_cli_prints_values_beyond_the_int_str_limit(argv, last, capsys):
    """10^4900 and sum_{j<50} 10^(100*j) have more digits than CPython
    converts by default; the CLI prints them in full and leaves the limit as
    it found it."""
    limit = sys.get_int_max_str_digits()
    verb, *flags = argv
    assert run([verb, "--g", "1/(1-10^100*x)", "--f", "x", "--order", "50", *flags]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 50 and out[-1].split()[0] == last


def test_cli_hankel_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1, 1, 2, 5, 14, 42, 132"))
    assert run(["hankel", "-", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1, 1, 1, 1\n"


def test_cli_hankel_zero_denominator_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1/0\n"))
    assert run(["hankel", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_cli_invert_below_order_m(capsys):
    argv = ["invert", "--m", "3", "--g", "1", "--f", "x", "--f", "x", "--f", "x"]
    assert run([*argv, "--order", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["order"], doc["g"], doc["f"]) == (2, "1", ["x", "x", "x"])


def test_cli_interleave(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3 4 5 6"))
    assert run(["interleave", "-", "--m", "2"]) == 0
    assert capsys.readouterr().out == "1, 3, 5\n2, 4, 6\n"


def test_cli_lattice(capsys):
    assert run([
        "lattice", str(FIXTURES / "lattice_threefold.json"), "--rows", "3",
    ]) == 0
    assert capsys.readouterr().out == "1 0 0\n0 1 0\n1 1 1\n"
    assert run([
        "lattice", str(FIXTURES / "lattice_threefold.json"), "--left-factors", "5",
    ]) == 0
    assert capsys.readouterr().out == "1\n1\n3\n6\n15\n"


def test_cli_adhoc_element(capsys):
    assert run([
        "matrix", "--m", "2", "--order", "8",
        "--g", "1/(1-x^2)", "--f", "x", "--f", "x*(1+x^2)",
        "--rows", "5",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["1", "0", "0", "0", "0"]
    assert out[2].split() == ["1", "0", "1", "0", "0"]


def test_cli_domain_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 3, "order": 10, "g": "1+x", "f": ["x", "x", "x"]}))
    assert run(["matrix", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_exits_1(capsys):
    assert run(["matrix", "no-such-file.json"]) == 1


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        run(["no-such-verb"])
    assert info.value.code == 2


def test_cli_parser_is_built_once_and_reused(capsys):
    """run parses with the one parser of the process; a call, even one
    that ends in a usage error, leaves nothing behind for the next (the
    append option --f starts from None each time)."""
    assert build_parser() is build_parser()
    argv = ["matrix", "--m", "2", "--g", "1/(1-x^2)", "--f", "x", "--f", "x/(1-x^2)", "--order", "6", "--rows", "5"]
    assert run(argv) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(["matrix", "--m", "2", "--g", "1", "--f", "x", "--f", "x", "--rows", "zero"])
    assert info.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert run(argv) == 0
    assert capsys.readouterr() == first
    assert build_parser().parse_args(["matrix", "--g", "1"]).f is None


@pytest.mark.parametrize("argv", [
    ["matrix", "--m", "0", "--g", "1", "--f", "x"],
    ["matrix", str(FIXTURES / "example1.json"), "--rows", "0"],
    ["rowsums", str(FIXTURES / "example1.json"), "--terms", "-3"],
    ["apply", str(FIXTURES / "example1.json"), "--gf", "1", "--terms", "-2"],
    ["interleave", str(FIXTURES / "example1.json"), "--m", "0"],
    ["lattice", str(FIXTURES / "lattice_threefold.json"), "--left-factors", "0"],
    ["matrix", "--order", "0", "--g", "1", "--f", "x", "--rows", "3"],
    ["invert", str(FIXTURES / "example1.json"), "--order", "-5"],
    ["product", str(FIXTURES / "example1.json"), str(FIXTURES / "example2.json"), "--order", "0"],
])
def test_cli_out_of_range_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["matrix", str(FIXTURES / "example1.json"), "--f", "x", "--rows", "3"],
    ["matrix", str(FIXTURES / "example1.json"), "--g", "1", "--f", "x", "--rows", "3"],
    ["invert", str(FIXTURES / "example1.json"), "--m", "2"],
    ["rowsums", "--f", "x"],
    ["apply", "--m", "2", "--gf", "1"],
    ["matrix"],
    ["lattice", str(FIXTURES / "lattice_threefold.json"), "--rows", "3", "--left-factors", "4"],
    ["product", "-", "-"],
], ids=["path-and-f", "path-and-g", "path-and-m", "f-without-g", "m-without-g", "no-element",
        "rows-and-left-factors", "stdin-twice"])
def test_cli_flags_it_would_drop_exit_2(argv, capsys):
    """A flag the verb would ignore, or no element to read, is a usage
    error: nothing printed, and one error line after the verb's own usage."""
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: mriordan {argv[0]} ")
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]


def test_console_entry_point():
    """``python -m mriordan`` runs the CLI: verify-paper passes every
    fixture, and no verb is a usage error."""
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "mriordan", "verify-paper"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "25/25 fixtures passed"
    done = subprocess.run([sys.executable, "-m", "mriordan"], capture_output=True, text=True, env=env)
    assert done.returncode == 2


ADHOC_DOC = {"m": 1, "order": 10, "g": "1/(1-x)", "f": ["x"]}
LATTICE_DOC = {"m": 1, "rules": [[[1, 1], [1, -2]]]}


@pytest.mark.parametrize("case", [
    ("matrix", dict(ADHOC_DOC, m=1.7)),
    ("matrix", dict(ADHOC_DOC, m=True)),
    ("matrix", dict(ADHOC_DOC, m="1")),
    ("matrix", dict(ADHOC_DOC, m=0)),
    ("matrix", dict(ADHOC_DOC, order=10.9)),
    ("matrix", dict(ADHOC_DOC, order=0)),
    ("matrix", dict(ADHOC_DOC, f="x")),
    ("matrix", dict(ADHOC_DOC, f=[5])),
    ("matrix", dict(ADHOC_DOC, f=["x", "x"])),
    ("matrix", dict(ADHOC_DOC, g=1)),
    ("matrix", dict(ADHOC_DOC, let=[{"name": "u", "expr": 5}])),
    ("matrix", dict(ADHOC_DOC, let=[{"name": ["u"], "expr": "x"}])),
    ("matrix", dict(ADHOC_DOC, let=5)),
    ("matrix", [ADHOC_DOC]),
    ("lattice", dict(LATTICE_DOC, m=1.7)),
    ("lattice", dict(LATTICE_DOC, m=True)),
    ("lattice", dict(LATTICE_DOC, m="1")),
    ("lattice", dict(LATTICE_DOC, m=0)),
    ("lattice", dict(LATTICE_DOC, rules=[[[1.5, 1]]])),
    ("lattice", dict(LATTICE_DOC, rules=[[[1, True]]])),
    ["matrix", "--m", "2", "--g", "1", "--f", "x"],
    ["matrix", "--g", "1"],
    ("matrix", dict(ADHOC_DOC, lets=[{"name": "u", "expr": "x"}])),
    ("matrix", dict(ADHOC_DOC, extra=1)),
    ("matrix", dict(ADHOC_DOC, let=[{"name": "u", "expr": "x", "value": 1}])),
    ("matrix", dict(ADHOC_DOC, let=[{"name": "a b", "expr": "1"}])),
    ("matrix", dict(ADHOC_DOC, let=[{"name": "2u", "expr": "1"}])),
    ("matrix", dict(ADHOC_DOC, let=[{"name": "", "expr": "1"}])),
    ("lattice", dict(LATTICE_DOC, rule=[[[1, 1]]])),
    ("lattice", dict(LATTICE_DOC, boundry="standard")),
    ("matrix", dict(ADHOC_DOC, let=[{"name": "$", "expr": "1"}])),
    ("lattice", [1]),
    ("lattice", {"m": 1}),
    ("lattice", dict(LATTICE_DOC, boundary="periodic")),
    ("lattice", dict(LATTICE_DOC, boundary=None)),
])
def test_cli_mistyped_document_exits_1(case, capsys, tmp_path):
    """A field of the wrong JSON type or out of range, an unknown key, a let
    name that is not an identifier, or the wrong number of f expressions,
    is one error line: never coerced or dropped, never a traceback."""
    if isinstance(case, tuple):
        verb, doc = case
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        case = [verb, str(path)]
    assert run(case) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("rules, step", [
    ("x", "'x'"),
    ([[[1]]], "[1]"),
    ([[[1, 1, 1]]], "[1, 1, 1]"),
    ([[1]], "1"),
], ids=["rules-a-string", "one-int", "three-ints", "bare-int"])
def test_cli_lattice_step_that_is_not_a_pair_exits_1(rules, step, capsys, tmp_path):
    """A step that is not a (dn, dk) pair is named in one error line, not
    reported as Python's unpacking error."""
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"m": 1, "rules": rules}))
    assert run(["lattice", str(path), "--rows", "3"]) == 1
    assert capsys.readouterr().err == f"error: a lattice step must be a (dn, dk) pair, got {step}\n"


@pytest.mark.parametrize("m, rules, message", [
    (1, 5, "rules must be a list of step lists, one per residue class, got 5"),
    (1, [5], "rules[0], the steps into residue class 0, must be a list of (dn, dk) steps, got 5"),
    (1, [None], "rules[0], the steps into residue class 0, must be a list of (dn, dk) steps, "
                "got None"),
    (2, [[[1, 1]], 5],
     "rules[1], the steps into residue class 1, must be a list of (dn, dk) steps, got 5"),
    (1, ["ab"], "a lattice step must be a (dn, dk) pair, got 'a'"),
], ids=["int", "int-rule", "null-rule", "second-rule", "string-rule"])
def test_cli_lattice_rules_that_are_not_lists_exit_1(m, rules, message, capsys, tmp_path):
    """A rule list that is not a list, or a rule that is not a list of
    steps, is named with its residue class in one error line, not reported
    as Python's iteration error.  A string is a list of one-character steps."""
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({"m": m, "rules": rules}))
    assert run(["lattice", str(path), "--rows", "3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["hankel"], ["interleave", "--m", "2"]])
def test_cli_non_utf8_sequence_file_exits_1(argv, capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_bytes(b"\xff\n")
    assert run([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_deeply_nested_expression_exits_1(capsys):
    nested = "(" * 300 + "1" + ")" * 300
    assert run(["matrix", "--g", nested, "--f", "x", "--rows", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_malformed_document_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(["matrix", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_verify_paper(capsys):
    assert run(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "fixtures passed" in out
    assert "FAIL" not in out


_USES_INVERSE = {
    "example1/inverse-closed-form", "example1/inverse-matrix", "example1/inverse-round-trip",
    "example1/inverse-row-sums", "example1/inverse-ftra", "example2/inverse-closed-form",
    "example2/inverse-matrix", "example2/inverse-row-sums", "example2/hankel-transforms",
    "example3/inverse-matrix", "example3/inverse-row-sums", "example3/lattice-recurrence-match",
}


def test_verify_paper_isolates_a_failing_inverse(capsys, monkeypatch):
    def broken(e):
        raise ZeroDivisionError("broken inverse")

    monkeypatch.setattr("mriordan.group.inverse", broken)
    assert run(["verify-paper"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "13/25 fixtures passed"
    for line in lines[:-1]:
        name = line.split()[1]
        if name in _USES_INVERSE:
            assert line == f"FAIL  {name}  (ZeroDivisionError: broken inverse)"
        else:
            assert line == f"pass  {name}"


def test_verify_paper_computes_each_inverse_once(monkeypatch):
    calls = []

    def counting(e):
        calls.append(e)
        return inverse(e)

    monkeypatch.setattr("mriordan.group.inverse", counting)
    assert all(r.ok for r in golden.run_all())
    assert len(calls) == 3


def test_cli_output_is_deterministic(capsys):
    run(["matrix", str(FIXTURES / "example2.json"), "--rows", "9"])
    first = capsys.readouterr().out
    run(["matrix", str(FIXTURES / "example2.json"), "--rows", "9"])
    assert capsys.readouterr().out == first


# -- one reader for every input ------------------------------------------

EXAMPLE1 = str(FIXTURES / "example1.json")
SEQUENCE = b"1, 1, 2, 5, 14, 42, 132\n"
BOM = b"\xef\xbb\xbf"


def _run_with_stdin(monkeypatch, capsys, argv, data: bytes):
    """Exit code, stdout and stderr of `argv` with `data` as the bytes on a
    real (buffered) stdin."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = run(argv)
    return (code, *capsys.readouterr())


def test_every_verb_has_a_handler():
    assert set(cli_verbs()) >= {"matrix", "product", "lattice", "verify-paper"}
    for verb, parser in cli_verbs().items():
        assert callable(parser.get_default("run")), verb


@pytest.mark.parametrize("argv, source", [
    (["matrix", "-", "--rows", "5"], EXAMPLE1),
    (["invert", "-", "--order", "9"], EXAMPLE1),
    (["apply", "-", "--gf", "1/(1-x^3)", "--terms", "7"], EXAMPLE1),
    (["rowsums", "-", "--terms", "7"], EXAMPLE1),
    (["diagsums", "-", "--terms", "7"], EXAMPLE1),
    (["product", "-", str(FIXTURES / "example2.json"), "--order", "9"], EXAMPLE1),
    (["product", str(FIXTURES / "example2.json"), "-", "--order", "9"], EXAMPLE1),
    (["lattice", "-", "--rows", "5"], str(FIXTURES / "lattice_threefold.json")),
    (["hankel", "-"], None),
    (["interleave", "-", "--m", "3"], None),
], ids=["matrix", "invert", "apply", "rowsums", "diagsums", "product-a", "product-b",
        "lattice", "hankel", "interleave"])
def test_every_path_argument_accepts_stdin(argv, source, monkeypatch, capsys, tmp_path):
    """`-` reads stdin wherever a path goes, and prints what the file gives."""
    if source is None:
        source = tmp_path / "seq.txt"
        source.write_bytes(SEQUENCE)
    data = Path(source).read_bytes()
    from_file = [str(source) if arg == "-" else arg for arg in argv]
    expected = _run_with_stdin(monkeypatch, capsys, from_file, b"")
    assert expected[0] == 0 and expected[1]
    assert _run_with_stdin(monkeypatch, capsys, argv, data) == expected


def test_cli_inverse_pipes_into_product(monkeypatch, capsys):
    assert run(["invert", EXAMPLE1]) == 0
    inv_doc = capsys.readouterr().out.encode()
    code, out, err = _run_with_stdin(monkeypatch, capsys, ["product", "-", EXAMPLE1], inv_doc)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["g"], doc["f"]) == ("1", ["x", "x", "x"])


@pytest.mark.parametrize("stdin", [False, True])
def test_cli_utf16_document_exits_1(stdin, monkeypatch, capsys, tmp_path):
    data = json.dumps(EXAMPLE1_DOC).encode("utf-16")
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    argv = ["matrix", "-" if stdin else str(path), "--rows", "3"]
    code, out, err = _run_with_stdin(monkeypatch, capsys, argv, data)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, source", [
    (["matrix", "--rows", "5"], EXAMPLE1),
    (["lattice", "--rows", "5"], str(FIXTURES / "lattice_threefold.json")),
    (["hankel"], None),
], ids=["element", "lattice", "sequence"])
def test_cli_reads_a_bom_prefixed_input_as_without(argv, source, monkeypatch, capsys, tmp_path):
    """A leading UTF-8 byte-order mark is dropped, from a document file, a
    sequence file and stdin alike."""
    data = SEQUENCE if source is None else Path(source).read_bytes()
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data)
    marked.write_bytes(BOM + data)
    verb, *flags = argv
    expected = _run_with_stdin(monkeypatch, capsys, [verb, str(plain), *flags], b"")
    assert expected[0] == 0 and expected[1]
    assert _run_with_stdin(monkeypatch, capsys, [verb, str(marked), *flags], b"") == expected
    assert _run_with_stdin(monkeypatch, capsys, [verb, "-", *flags], BOM + data) == expected


def test_cli_product_reads_stdin_once(capsys, monkeypatch):
    """Both operands "-" is a usage error: stdin can be read only once."""
    monkeypatch.setattr("sys.stdin", io.StringIO((FIXTURES / "example1.json").read_text()))
    with pytest.raises(SystemExit) as info:
        run(["product", "-", "-"])
    assert info.value.code == 2
    assert "stdin (-) can be read only once" in capsys.readouterr().err
