"""Expression language: parser round trips, symbolic derivatives against a
finite difference oracle, and the documented error conditions."""

import ast
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow import funcexpr
from morseflow.errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    UsageError,
)

# expressions chosen to cover every node type and nesting pattern
CASES = [
    ("cos(2*pi*x1) + cos(2*pi*x2)", 2),
    ("sin(x1)*cos(x2) - x1^2/4 + 3", 2),
    ("exp(-x1^2 - x2^2) * (x1 + 2*x2)", 2),
    ("(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", 3),
    ("x1^3 - 2*x1*x2 + x2^-2", 2),
    ("sqrt(x1^2 + 1) + log(x2^2 + 2)", 2),
    ("-x1 + -(x2 * pi)", 2),
    ("2^3 * x1", 1),
]


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return H


@pytest.mark.parametrize("text,dim", CASES)
def test_roundtrip(text, dim):
    e = funcexpr.parse(text, dim)
    assert funcexpr.parse(funcexpr.to_string(e), dim) == e


@pytest.mark.parametrize("text,dim", CASES)
def test_gradient_matches_finite_differences(text, dim):
    field = funcexpr.ScalarField.from_text(text, dim)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(0.3, 1.2, size=dim)  # keep clear of poles
        g = np.asarray(field.gradient(tuple(x)))
        g_fd = fd_gradient(lambda y: field.value(tuple(y)), x)
        assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("text,dim", CASES)
def test_hessian_matches_finite_differences(text, dim):
    field = funcexpr.ScalarField.from_text(text, dim)
    rng = np.random.default_rng(12)
    for _ in range(3):
        x = rng.uniform(0.3, 1.2, size=dim)
        H = np.asarray(field.hessian(tuple(x)))
        H_fd = fd_hessian(lambda y: field.value(tuple(y)), x)
        assert np.allclose(H, H_fd, rtol=2e-4, atol=2e-4)
        assert np.allclose(H, H.T)


def test_eval_golden_values():
    assert funcexpr.ScalarField.from_text("cos(2*pi*x1)", 1).value((0.0,)) == 1.0
    assert funcexpr.ScalarField.from_text("x1^2 + x2", 2).value((3.0, 4.0)) == 13.0
    f = funcexpr.ScalarField.from_text("cos(2*pi*x1) + cos(2*pi*x2)", 2)
    assert f.value((0.0, 0.0)) == 2.0
    assert f.value((0.5, 0.5)) == -2.0


def test_differentiate_linearity():
    # d/dx1 of f + g equals df + dg, evaluated pointwise
    f = funcexpr.parse("sin(x1)*x2", 2)
    g = funcexpr.parse("x1^3", 2)
    s = funcexpr.parse("sin(x1)*x2 + x1^3", 2)
    x = (0.7, -1.3)
    lhs = funcexpr.eval_expr(funcexpr.differentiate(s, 0), x)
    rhs = (funcexpr.eval_expr(funcexpr.differentiate(f, 0), x)
           + funcexpr.eval_expr(funcexpr.differentiate(g, 0), x))
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_second_derivatives_commute():
    f = funcexpr.parse("exp(x1*x2) + sin(x1 + 2*x2)", 2)
    d12 = funcexpr.differentiate(funcexpr.differentiate(f, 0), 1)
    d21 = funcexpr.differentiate(funcexpr.differentiate(f, 1), 0)
    for x in [(0.1, 0.2), (1.0, -0.5), (0.33, 0.77)]:
        assert math.isclose(funcexpr.eval_expr(d12, x), funcexpr.eval_expr(d21, x),
                            rel_tol=1e-12)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        funcexpr.parse("x1 +", 1)
    assert ei.value.position == 4

    with pytest.raises(ExprSyntaxError):
        funcexpr.parse("(x1", 1)
    with pytest.raises(ExprSyntaxError):
        funcexpr.parse("x1 ** 2", 1)
    with pytest.raises(ExprSyntaxError):
        funcexpr.parse("", 1)


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExprSyntaxError):
        funcexpr.parse("x1^x2", 2)
    with pytest.raises(ExprSyntaxError):
        funcexpr.parse("x1^1.5", 1)
    assert funcexpr.eval_expr(funcexpr.parse("x1^-2", 1), (2.0,)) == 0.25


@pytest.mark.parametrize("text,offset", [
    ("x1^\u00b2", 3),                   # superscript two: str.isdigit is True
    ("cos(2*pi*x1)*\u00b2", 13),
    ("cos(2*pi*x\u0661)", 10),          # Arabic-Indic one is not x1
    ("\u0661 + x1", 0),
    ("caf\u00e9", 3),                   # identifiers are ASCII too
])
def test_non_ascii_digits_and_letters_rejected(text, offset):
    with pytest.raises(ExprSyntaxError) as ei:
        funcexpr.parse(text, 1)
    assert ei.value.position == offset


def test_overflowing_literals_rejected():
    with pytest.raises(ExprSyntaxError) as ei:
        funcexpr.parse("1e400*x1", 1)
    assert ei.value.position == 0
    with pytest.raises(ExprSyntaxError):
        funcexpr.parse("x1^1e400", 1)
    # integer exponents are read exactly, not through a float
    e = funcexpr.parse("x1^12345678901234567891", 1)
    assert e.exponent == 12345678901234567891


@pytest.mark.parametrize("text", [
    "(" * 300 + "x1" + ")" * 300,
    "sin(" * 300 + "x1" + ")" * 300,
    "+".join(["x1"] * 1501),            # a flat sum is a left-deep AST
])
def test_deep_expressions_rejected(text):
    with pytest.raises(ExprSyntaxError, match=f"deeper than {funcexpr.MAX_DEPTH} levels"):
        funcexpr.parse(text, 1)


def test_expression_just_under_depth_limit_evaluates():
    k = funcexpr.MAX_DEPTH - 1
    f = funcexpr.ScalarField.from_text("sin(" * k + "x1" + ")" * k, 1)
    x = 0.3
    for _ in range(k):
        x = math.sin(x)
    assert f.value([0.3]) == pytest.approx(x, rel=1e-12)
    assert f.gradient([0.3])[0] == pytest.approx(fd_gradient(f.value, [0.3])[0], rel=1e-6)
    assert math.isfinite(f.hessian([0.3])[0][0])
    total = funcexpr.ScalarField.from_text("+".join(["x1"] * funcexpr.MAX_DEPTH), 1)
    assert total.gradient([0.5]) == (float(funcexpr.MAX_DEPTH),)


def _asts(dim):
    leaves = st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(funcexpr.Num),
        st.just(funcexpr.Pi()),
        st.integers(1, dim).map(funcexpr.Var))

    def branch(sub):
        return st.one_of(
            sub.map(funcexpr.Neg),
            st.builds(funcexpr.Add, sub, sub), st.builds(funcexpr.Sub, sub, sub),
            st.builds(funcexpr.Mul, sub, sub), st.builds(funcexpr.Div, sub, sub),
            st.builds(funcexpr.Pow, sub, st.integers()),
            st.builds(funcexpr.Call, st.sampled_from(funcexpr.FUNCTIONS), sub))
    return st.recursive(leaves, branch, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_asts(3))
def test_to_string_parse_roundtrip_property(e):
    assert funcexpr.parse(funcexpr.to_string(e), 3) == e


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="x0123456789.eE+-*/^() pisncoqrtlg_\u00b2\u0661\u00e9\t",
               max_size=24))
def test_parse_random_text_returns_ast_or_usage_error(text):
    try:
        e = funcexpr.parse(text, 3)
    except UsageError:
        return
    assert funcexpr.parse(funcexpr.to_string(e), 3) == e


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError):
        funcexpr.parse("x0", 2)
    with pytest.raises(UnknownIdentifierError):
        funcexpr.parse("foo(x1)", 1)
    with pytest.raises(UnknownIdentifierError):
        funcexpr.parse("y + 1", 1)


def test_dimension_check():
    with pytest.raises(DimensionError):
        funcexpr.parse("x3", 2)
    funcexpr.parse("x3", 3)  # fine


def test_domain_errors_at_evaluation():
    f = funcexpr.ScalarField.from_text("1/x1", 1)
    with pytest.raises(DomainError):
        f.value((0.0,))
    g = funcexpr.ScalarField.from_text("log(x1)", 1)
    with pytest.raises(DomainError):
        g.value((-1.0,))
    h = funcexpr.ScalarField.from_text("sqrt(x1)", 1)
    with pytest.raises(DomainError):
        h.value((-4.0,))
    # numpy scalars divide without a Python exception; still a DomainError
    with pytest.raises(DomainError):
        f.value(np.zeros(1))
    k = funcexpr.ScalarField.from_text("sqrt(x1^2)", 1)
    with pytest.raises(DomainError):
        k.gradient(np.zeros(1))
    with pytest.raises(DomainError):
        k.hessian(np.zeros(1))


FIELDS = [
    ("cos(2*pi*x1) + cos(2*pi*x2) + 0.061803*cos(2*pi*(x1 + x2))", 2),
    ("(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", 3),
    ("cos(2*pi*x1)", 1),
]


@pytest.mark.parametrize("text,dim", FIELDS)
def test_compiled_derivatives_equal_tree_walk(text, dim):
    # subexpression sharing keeps every operation, so values are bitwise equal
    field = funcexpr.ScalarField.from_text(text, dim)
    flat = [e for row in field.second for e in row]
    for probe in [(0.1234567, 0.6543219, 0.3141592), (0.8765432, -0.25, 0.5)]:
        x = probe[:dim]
        assert field._value(*x) == (funcexpr.eval_expr(field.expr, x),)
        assert field._grad(*x) == tuple(funcexpr.eval_expr(e, x) for e in field.partials)
        assert field._hess(*x) == tuple(funcexpr.eval_expr(e, x) for e in flat)


def test_compiled_gradient_computes_each_subexpression_once():
    field = funcexpr.ScalarField.from_text("(1*x2^2 + 2*x3^2) / (x1^2 + x2^2 + x3^2)", 3)
    src = funcexpr._source(field.partials, 3)
    assert "t0 = " in src
    ops = [ast.dump(node) for node in ast.walk(ast.parse(src))
           if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call))]
    assert len(ops) == len(set(ops))
