import io
import json
import random
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
from mriordan.golden import EXAMPLE1_DOC, THREEFOLD_DOC

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_fixture_files_match_embedded_docs():
    loaded = load_element(FIXTURES / "example1.json")
    assert loaded == element_from_doc(EXAMPLE1_DOC)
    spec = load_lattice(FIXTURES / "lattice_threefold.json")
    assert spec.m == THREEFOLD_DOC["m"]


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


def test_cli_hankel_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1, 1, 2, 5, 14, 42, 132"))
    assert run(["hankel", "-", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1, 1, 1, 1\n"


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
])
def test_cli_out_of_range_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


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


def test_cli_output_is_deterministic(capsys):
    run(["matrix", str(FIXTURES / "example2.json"), "--rows", "9"])
    first = capsys.readouterr().out
    run(["matrix", str(FIXTURES / "example2.json"), "--rows", "9"])
    assert capsys.readouterr().out == first
