from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mriordan import (
    EvaluationError,
    ExprSyntaxError,
    InvalidArgument,
    Series,
    UnknownIdentifier,
    evaluate,
    evaluate_text,
    parse,
    sqrt_unit,
    to_text,
)
from mriordan.expressions import MAX_NESTING, Bin, Call, Neg, Num, Pow, Var, _Tokenizer

from conftest import exact_lists, typed
from oracles import evaluate_direct


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
    with pytest.raises(ExprSyntaxError, match="expected '\\)'") as info:
        parse("sqrt(1+x")
    assert info.value.offset == 8


def tokens(text, peek_first):
    """Every token of `text` through next(), each peeked first if asked;
    a syntax error as its (message, offset) in place of the rest."""
    tok, out = _Tokenizer(text), []
    try:
        while not out or out[-1][0] != "eof":
            ahead = tok.peek() if peek_first else None
            out.append(tok.next())
            assert ahead is None or out[-1] is ahead  # next() took the token peek() scanned
    except ExprSyntaxError as exc:
        out.append((str(exc), exc.offset))
    return out


def test_tokens_after_a_lookahead():
    text = " 12 + \u0663x*(ab_1) "  # U+0663 is ARABIC-INDIC DIGIT THREE, a decimal
    assert tokens(text, True) == tokens(text, False) == [
        ("int", "12", 1), ("+", "+", 4), ("int", "\u0663", 6), ("ident", "x", 7), ("*", "*", 8),
        ("(", "(", 9), ("ident", "ab_1", 10), (")", ")", 14), ("eof", "", 16),
    ]
    assert parse("x^\u0663") == Pow(Var("x", 0), 3, 1)


@given(st.text(alphabet="x1\u0663\u00b2_ +-*/^()?", max_size=30))
@settings(max_examples=200, deadline=None)
def test_a_lookahead_changes_no_token(text):
    assert tokens(text, True) == tokens(text, False)


@pytest.mark.parametrize("text, message, offset", [
    ("1 + x ? 2", "unexpected character '?'", 6),
    ("x^\u00b2", "unexpected character '\u00b2'", 2),
    ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
     f"expression nested more than {MAX_NESTING} levels deep", MAX_NESTING),
    ("-" * (MAX_NESTING + 1) + "x", f"expression nested more than {MAX_NESTING} levels deep", MAX_NESTING),
], ids=["after-earlier-tokens", "superscript-two", "parentheses", "unary-minus"])
def test_syntax_errors_after_a_lookahead(text, message, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


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
    for text in ["(a+b)*c*(d-e)/f-(-g*h)", "(x^2)^3", "(-x)^2", "a-(b-c)", "-x*y",
                 "sqrt(1+x)*catalan(x^3)"]:
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


@pytest.mark.parametrize("text", ["x", "1", "1+1", "(1+x)^2", "2*x"])
def test_a_negative_order_is_one_refusal(text):
    """Every expression refuses order -1 with the same argument error,
    before evaluating; x at order 0 is an error of the expression."""
    with pytest.raises(InvalidArgument, match=r"^order must be >= 0, got -1$"):
        evaluate_text(text, -1)
    if "x" in text:
        with pytest.raises(EvaluationError, match="x needs order >= 1"):
            evaluate_text(text, 0)


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


# -- sums of monomials against the pairwise evaluation -------------------


@st.composite
def polynomial_texts(draw):
    """A '+'/'-' chain of up to 40 terms, some joined by '*' or '/', with the
    sum so far parenthesised on the left of some of those: terms c*x^k and
    c/d*x^k with k up to past the order, x, x^k, -x^k, x/2, 2/x, 1/0, 0^0,
    x^-1, a binding and products with it, and series that are not
    monomials, quotients of sums among them; and the order, from 0, to
    evaluate at."""
    order = draw(st.integers(0, 12))
    k = st.integers(0, order + 4).map(str)
    c = st.integers(0, 9).map(str)
    term = st.one_of(
        st.builds("{}*x^{}".format, c, k),
        st.builds("{}/{}*x^{}".format, c, st.integers(1, 9).map(str), k),
        st.builds("x^{}".format, k),
        st.builds("-x^{}".format, k),
        c,
        st.sampled_from(["x", "x/2", "2/x", "1/0", "0^0", "x^-1", "-(3*x)", "x*x^2*5",
                         "a", "a*x", "2*a", "1/(1+x^3)", "(1+x)^2", "catalan(x^3)", "sqrt(1+x)",
                         "(1-x^3)/(1+x^3)", "(1-x-2*x^2+x^3)/(1+x)*a", "(x-a)/0"]),
    )
    terms = draw(st.lists(term, min_size=1, max_size=40))
    text = draw(st.sampled_from(["", "-"])) + terms[0]
    for t in terms[1:]:
        op = draw(st.sampled_from("++++----*/"))
        if op in "*/" and draw(st.booleans()):
            text = f"({text})"  # a sum on the left of a product
        text += op + t
    return text, order


def outcome(evaluate_fn, node, bindings, order):
    """The value with its coefficient types, or the error's class, message and offset."""
    try:
        value = evaluate_fn(node, bindings, order)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return typed(value.coeffs)


@given(polynomial_texts(), st.integers(0, 12), exact_lists(1, 13))
@settings(max_examples=200, deadline=None)
def test_sums_match_the_pairwise_evaluation(case, binding_order, coeffs):
    """Monomials added in place give the value, coefficient types, order
    and errors (class, message and offset) of pairwise evaluation; the
    binding may have a lower order than the evaluation."""
    text, order = case
    node = parse(text)
    bindings = {"a": Series(coeffs[: binding_order + 1])}
    assert outcome(evaluate, node, bindings, order) == outcome(evaluate_direct, node, bindings, order)
