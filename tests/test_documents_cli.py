import io
import json
import random
import sys
from pathlib import Path

import pytest

from mriordan import Series, evaluate_text, inverse
from mriordan.cli import run
from mriordan.documents import (
    DocumentError,
    element_from_doc,
    element_to_doc,
    element_to_json,
    load_element,
    load_lattice,
    parse_sequence,
    series_to_expr,
)
from mriordan import golden
from mriordan.golden import EXAMPLE1_DOC, THREEFOLD_DOC

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
