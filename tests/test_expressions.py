"""Component expression parser: grammar, errors with positions, dual evaluation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aegeom.dual import Dual
from aegeom.errors import ExpressionError
from aegeom.expressions import Neg, Num, Pow, Var, parse_expression
from aegeom.manifold import (
    HERMITIAN,
    Box,
    ChartedManifold,
    eval_with_derivatives,
    evaluate_fields,
)


def ev(text, coords, n_vars=None):
    n = len(coords) if n_vars is None else n_vars
    return parse_expression(text, n).evaluate(coords)


def test_literals_and_variables():
    assert ev("3.5", [0.0]) == 3.5
    assert ev("x1", [7.0]) == 7.0
    assert ev("x2", [1.0, -4.0]) == -4.0


def test_arithmetic_and_precedence():
    assert ev("x1^2 + 3*x2", [2.0, 5.0]) == 19.0
    assert ev("2*x1^2", [3.0]) == 18.0  # power binds tighter than product
    assert ev("-x1^2", [3.0]) == -9.0  # and tighter than unary minus
    assert ev("(x1+x2)/x1", [2.0, 6.0]) == 4.0
    assert ev("1 - 2 - 3", [0.0]) == -4.0  # left associative
    assert ev("12/3/2", [0.0]) == 2.0
    assert ev("--x1", [5.0]) == 5.0
    assert ev("+-+x1", [5.0]) == -5.0


def test_negative_and_zero_exponents():
    assert ev("x1^-2", [2.0]) == 0.25
    assert ev("x1^0", [9.0]) == 1.0
    assert ev("x1^+3", [2.0]) == 8.0


def test_whitespace_and_newlines_are_ignored():
    assert ev("x1 +\n  2 * x2", [1.0, 3.0]) == 7.0


def test_scientific_literals():
    assert ev("1e0 + x1^2", [2.0]) == 5.0
    assert ev("1e6", [0.0]) == 1e6
    assert ev("2.5e-3", [0.0]) == 2.5e-3
    assert ev("1E+2", [0.0]) == 100.0
    assert ev(".5e1*x1", [3.0]) == 15.0
    assert ev("x1^2*1e-1", [3.0]) == pytest.approx(0.9, rel=1e-15)


@pytest.mark.parametrize(
    "text, column",
    [("1e", 1), ("1e+", 1), ("x1 + 2.5E-", 6), ("x1*\n  3e+x1", 3)],
)
def test_malformed_exponent_is_rejected_with_position(text, column):
    with pytest.raises(ExpressionError, match="malformed exponent") as exc:
        parse_expression(text, 1)
    assert exc.value.column == column


def test_scientific_literal_is_not_an_exponent_of_a_power():
    with pytest.raises(ExpressionError, match="integer") as exc:
        parse_expression("x1^1e1", 1)
    assert exc.value.column == 4


def test_fractional_exponent_is_rejected_with_position():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("x1^2.5", 1)
    assert exc.value.line == 1
    assert exc.value.column == 4
    assert "integer" in str(exc.value)


def test_variable_exponent_is_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x1^x2", 2)
    with pytest.raises(ExpressionError):
        parse_expression("x1^(2)", 1)


def test_unknown_variable_reports_allowed_range():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("x3 + 1", 2)
    assert "x1 .. x2" in str(exc.value)
    with pytest.raises(ExpressionError):
        parse_expression("y", 2)
    with pytest.raises(ExpressionError):
        parse_expression("x0", 2)


def test_error_position_spans_lines():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("x1 +\n  @", 1)
    assert exc.value.line == 2
    assert exc.value.column == 3


def test_unbalanced_parens_and_trailing_tokens():
    with pytest.raises(ExpressionError):
        parse_expression("(x1 + 2", 1)
    with pytest.raises(ExpressionError):
        parse_expression("x1 + 2)", 1)
    with pytest.raises(ExpressionError):
        parse_expression("x1 x2", 2)
    with pytest.raises(ExpressionError):
        parse_expression("", 1)
    with pytest.raises(ExpressionError):
        parse_expression("x1 *", 1)


def test_evaluation_with_duals_carries_derivatives():
    expr = parse_expression("x1*x2 + x2^2", 2)
    coords = Dual.seed([3.0, 4.0])
    out = expr.evaluate(coords)
    assert out.value == 28.0
    assert out.grad[0] == 4.0  # d/dx1 = x2
    assert out.grad[1] == 11.0  # d/dx2 = x1 + 2 x2


def test_rational_expression_with_duals():
    expr = parse_expression("1/(1 + x1^2)", 1)
    (x,) = Dual.seed([2.0])
    out = expr.evaluate([x])
    assert out.value == pytest.approx(0.2, rel=1e-12)
    assert out.grad[0] == pytest.approx(-4.0 / 25.0, rel=1e-12)


def test_parse_is_pure_and_reusable():
    expr = parse_expression("x1^3 - x1", 1)
    assert expr.evaluate([2.0]) == 6.0
    assert expr.evaluate([0.0]) == 0.0
    assert expr.evaluate([-2.0]) == -6.0


def magnitude(expr, coords):
    """The expression with every sign made positive: bounds its rounding."""
    if isinstance(expr, Num):
        return abs(expr.value)
    if isinstance(expr, Var):
        return abs(coords[expr.index])
    if isinstance(expr, Neg):
        return magnitude(expr.operand, coords)
    if isinstance(expr, Pow):
        return magnitude(expr.base, coords) ** expr.exponent
    left, right = magnitude(expr.left, coords), magnitude(expr.right, coords)
    return left * right if expr.op == "*" else left + right


leaves = st.one_of(
    st.integers(1, 4).map(lambda k: f"x{k}"),
    st.floats(-4.0, 4.0, allow_nan=False).map(repr),
)
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.integers(0, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(trees, st.lists(st.floats(-0.95, 0.95), min_size=4, max_size=4))
def test_float_and_dual_evaluation_agree(text, point):
    expr = parse_expression(text, 4)
    assume(magnitude(expr, [1.0] * 4) < 1e100)
    eye = np.eye(4).tolist()
    m = ChartedManifold(
        name="tree",
        kind=HERMITIAN,
        dim=4,
        domain=Box((-1.0,) * 4, (1.0,) * 4),
        metric=lambda c: [[expr.evaluate(c)] + eye[0][1:]] + eye[1:],
        structure=lambda c: eye,
    )
    on_floats = evaluate_fields(m, point)[0][0, 0]
    on_duals = eval_with_derivatives(m, point)[0].data[0, 0]
    # Python ** calls pow while Dual squares repeatedly, so the two may
    # round differently, but only at the level of the magnitude
    assert abs(on_floats - on_duals) <= 1e-12 * magnitude(expr, point)
