from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mriordan import (
    EvaluationError,
    ExprSyntaxError,
    Series,
    UnknownIdentifier,
    evaluate,
    evaluate_text,
    parse,
    sqrt_unit,
    to_text,
)
from mriordan.expressions import MAX_NESTING, Bin, Call, Neg, Num, Pow, Var


def strip(node):
    """Drop source positions for structural comparison."""
    if isinstance(node, Num):
        return ("num", node.value)
    if isinstance(node, Var):
        return ("var", node.name)
    if isinstance(node, Neg):
        return ("neg", strip(node.arg))
    if isinstance(node, Pow):
        return ("pow", strip(node.base), node.exponent)
    if isinstance(node, Call):
        return ("call", node.func, strip(node.arg))
    return ("bin", node.op, strip(node.left), strip(node.right))


def test_parse_grammar_examples():
    assert strip(parse("1/(1-x^3)")) == (
        "bin", "/", ("num", 1),
        ("bin", "-", ("num", 1), ("pow", ("var", "x"), 3)),
    )
    assert strip(parse("x*(1+x^3)")) == (
        "bin", "*", ("var", "x"),
        ("bin", "+", ("num", 1), ("pow", ("var", "x"), 3)),
    )
    assert strip(parse("catalan(-x^3)")) == (
        "call", "catalan", ("neg", ("pow", ("var", "x"), 3)),
    )


def test_parse_precedence_and_associativity():
    assert strip(parse("1-2-3")) == (
        "bin", "-", ("bin", "-", ("num", 1), ("num", 2)), ("num", 3),
    )
    assert strip(parse("1+2*x")) == (
        "bin", "+", ("num", 1), ("bin", "*", ("num", 2), ("var", "x")),
    )
    assert strip(parse("-x^2")) == ("neg", ("pow", ("var", "x"), 2))
    assert strip(parse("x^-2")) == ("pow", ("var", "x"), -2)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as info:
        parse("1+")
    assert info.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse("(1+x")
    with pytest.raises(ExprSyntaxError):
        parse("1 x")
    with pytest.raises(ExprSyntaxError):
        parse("x^y")
    with pytest.raises(UnknownIdentifier):
        parse("foo(x)")  # only sqrt/catalan may be called
    with pytest.raises(ExprSyntaxError, match="unexpected character") as info:
        parse("x^\u00b2")  # a digit, but not a decimal one that int() reads
    assert info.value.offset == 2


@pytest.mark.parametrize("text", [
    "(" * 300 + "1" + ")" * 300,
    "-" * 300 + "x",
    "sqrt(" * 300 + "1" + ")" * 300,
], ids=["parentheses", "unary-minus", "calls"])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nested more than"):
        parse(text)


def test_nesting_within_the_bound_evaluates():
    depth = MAX_NESTING - 1
    assert evaluate_text("(" * depth + "x" + ")" * depth, 3) == Series.x(3)
    assert evaluate_text("-" * depth + "x", 3) == -Series.x(3)
    assert evaluate_text("sqrt(" * depth + "1+x" + ")" * depth, 3)[1] == Fraction(1, 2**depth)


def test_long_chains_evaluate():
    terms = 3000
    assert list(evaluate_text("+".join(["x"] * terms), 2).coeffs) == [0, terms, 0]
    assert evaluate_text("*".join(["(1+x)"] * terms), 1) == Series([1, terms])


@pytest.mark.parametrize("op", ["+", "*"])
def test_long_chains_print(op):
    text = op.join(["x"] * 3000)
    printed = to_text(parse(text))
    assert printed == text
    assert to_text(parse(printed)) == printed


def test_printer_parenthesises_what_the_grammar_needs():
    for text in ["(a+b)*c*(d-e)/f-(-g*h)", "(x^2)^3", "(-x)^2", "a-(b-c)", "-x*y"]:
        assert to_text(parse(text)) == text


def test_unknown_identifier_at_evaluation():
    with pytest.raises(UnknownIdentifier):
        evaluate_text("y+1", 5)


def test_evaluate_catalan():
    got = evaluate_text("catalan(x)", 6)
    assert list(got.coeffs) == [1, 1, 2, 5, 14, 42, 132]


def test_evaluate_geometric_in_x_cubed():
    got = evaluate_text("1/(1-x^3)", 9)
    assert list(got.coeffs) == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_catalan_closed_form_oracle():
    # c(x) also equals (1 - sqrt(1-4x))/(2x); the recurrence-built series
    # must agree with the square-root route.
    n = 14
    closed = (1 - sqrt_unit(evaluate_text("1-4*x", n + 1))).shift_down(1) / 2
    assert evaluate_text("catalan(x)", n) == closed


def test_negative_power_requires_unit():
    assert evaluate_text("(1-x)^-1", 4) == Series([1, 1, 1, 1, 1])
    with pytest.raises(EvaluationError):
        evaluate_text("x^-1", 4)


def test_division_error_is_wrapped():
    with pytest.raises(EvaluationError):
        evaluate_text("1/x", 4)
    # catalan argument must have zero constant term
    with pytest.raises(EvaluationError):
        evaluate_text("catalan(1+x)", 4)
    # sqrt argument must have constant term exactly 1
    with pytest.raises(EvaluationError):
        evaluate_text("sqrt(2+x)", 4)


def test_bindings_resolve():
    g = evaluate_text("1/(1-x)", 6)
    got = evaluate_text("x*g^2", 6, {"g": g})
    assert list(got.coeffs) == [0, 1, 2, 3, 4, 5, 6]


exprs = st.recursive(
    st.sampled_from(["x", "1", "2", "7"]),
    lambda inner: st.builds(lambda a, b, op: f"({a}){op}({b})", inner, inner,
                            st.sampled_from("+-*")),
    max_leaves=8,
)


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_printer_round_trip_is_stable(text):
    ast = parse(text)
    printed = to_text(ast)
    assert to_text(parse(printed)) == printed
    assert evaluate(parse(printed), {}, 8) == evaluate(ast, {}, 8)


@given(exprs, exprs, st.sampled_from("+-*"))
@settings(max_examples=40, deadline=None)
def test_evaluate_is_homomorphic(a, b, op):
    combined = evaluate_text(f"({a}){op}({b})", 8)
    ea, eb = evaluate_text(a, 8), evaluate_text(b, 8)
    want = {"+": ea + eb, "-": ea - eb, "*": ea * eb}[op]
    assert combined == want


def test_lattice_g_matches_counting_oracle_column0():
    from mriordan.golden import LATTICE_G_EXPR, THREEFOLD_DOC
    from mriordan.lattice import LatticeSpec, count_table

    g = evaluate_text(LATTICE_G_EXPR, 10)
    assert list(g.coeffs)[:11] == [1, 0, 1, 1, 3, 5, 13, 25, 62, 128, 309][:11]
    spec = LatticeSpec.from_lists(THREEFOLD_DOC["m"], THREEFOLD_DOC["rules"])
    table = count_table(spec, 11)
    assert [table[n, 0] for n in range(11)] == [1, 0, 1, 1, 3, 5, 13, 25, 62, 128, 309]
