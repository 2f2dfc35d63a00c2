"""Component expression parser: grammar, errors with positions, dual evaluation."""

import json
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aegeom.cli import EXIT_FAIL, EXIT_PASS, run
from aegeom.dual import Dual, power
from aegeom.errors import ExpressionError
from aegeom.expressions import parse_expression
from aegeom.manifold import (
    eval_with_derivatives,
    evaluate_fields,
    load_manifold_config,
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


@pytest.mark.parametrize("text, column", [("1.2.3", 1), ("x1 + .", 6)])
def test_malformed_number_is_rejected_with_position(text, column):
    with pytest.raises(ExpressionError, match="malformed number") as exc:
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


# superscripts, Arabic-Indic and fullwidth digits and accented letters pass
# str.isdigit or str.isalpha, but only ASCII is read
@pytest.mark.parametrize(
    "text, column",
    [("\u00b2", 1), ("x1\u00b2", 3), ("\u0661", 1), ("x\uff11", 2), ("\u00e9", 1)],
)
def test_non_ascii_character_is_rejected_with_position(text, column):
    with pytest.raises(ExpressionError, match="unexpected character") as exc:
        parse_expression("1 +\n " + text, 1)
    assert (exc.value.line, exc.value.column) == (2, column + 1)


@pytest.mark.parametrize("verb", ["validate", "classify", "verify", "identities"])
@pytest.mark.parametrize(
    "cell, column",
    [("\u00b2", 1), ("1 + x1\u00b2", 7), ("\u0661", 1), ("x\uff11", 2)],
)
def test_non_ascii_config_cell_exits_one_naming_the_cell(
    tmp_path, capsys, verb, cell, column
):
    err = metric_cell_error(tmp_path / "superscript.json", capsys, verb, cell)
    assert f"line 1, column {column}: metric[0][0] of superscript.json" in err
    assert "unexpected character" in err


def metric_cell_config(path, cell):
    """Write a hermitian config whose metric[0][0] is ``cell``; return the path."""
    config = {
        "kind": {"alpha": -1, "epsilon": 1},
        "dim": 2,
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "metric": [[cell, "0"], ["0", "1"]],
        "structure": [["0", "-1"], ["1", "0"]],
    }
    path.write_text(json.dumps(config))
    return path


def metric_cell_error(path, capsys, verb, cell):
    """Stderr of ``verb`` on a hermitian config whose metric[0][0] is ``cell``.

    The verb must exit 1 with nothing on stdout and no traceback.
    """
    code = run([verb, "--manifold", str(metric_cell_config(path, cell))])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


def test_numbers_past_the_digit_limit_are_parse_errors():
    # int() reads at most 4300 digits; a variable index or an exponent past
    # that is an error at its position, not a ValueError
    with pytest.raises(ExpressionError, match="unknown variable") as exc:
        parse_expression("1 +\n x" + "1" * 5000, 2)
    assert (exc.value.line, exc.value.column) == (2, 2)
    with pytest.raises(ExpressionError, match="exponent has too many digits") as exc:
        parse_expression("x1^-" + "1" * 5000, 2)
    assert (exc.value.line, exc.value.column) == (1, 5)
    # leading zeros still name a variable, as before
    assert parse_expression("x" + "0" * 5000 + "2", 2).evaluate([3.0, 5.0]) == 5.0


@pytest.mark.parametrize("verb", ["validate", "classify", "verify", "identities"])
@pytest.mark.parametrize(
    "cell, column, message",
    [
        ("1 + 0*x" + "1" * 5000, 7, "unknown variable"),
        ("x1^" + "1" * 5000, 4, "exponent has too many digits"),
    ],
    ids=["variable-index", "exponent"],
)
def test_a_number_past_the_digit_limit_exits_one_naming_the_cell(
    tmp_path, capsys, verb, cell, column, message
):
    err = metric_cell_error(tmp_path / "digits.json", capsys, verb, cell)
    assert f"line 1, column {column}: metric[0][0] of digits.json" in err
    assert message in err


ZERO_TIMES_HUGE = "1 + 0*x1^" + "9" * 4000
# x1 + 3 lies in [2, 4], so its power of -10^400 underflows to 0
MINUS_HUGE = "1 + (x1 + 3)^-1" + "0" * 400


@pytest.mark.parametrize(
    "cell, value",
    [(ZERO_TIMES_HUGE, 1.0), ("x1^" + "9" * 400, 0.0), (MINUS_HUGE, 1.0)],
    ids=["4000-nines", "400-nines", "minus-10^400"],
)
def test_a_huge_exponent_reads_the_same_on_both_evaluators(tmp_path, cell, value):
    # the powers underflow to 0 on floats and duals alike, and so do their
    # derivatives, never NaN from 0 * inf
    m = load_manifold_config(metric_cell_config(tmp_path / "huge.json", cell))
    g, dg, _, _ = eval_with_derivatives(m, (0.5, 0.5))
    assert evaluate_fields(m, (0.5, 0.5))[0][0, 0] == value
    assert g[0, 0, 0] == value
    assert np.array_equal(dg[0, :, 0, 0], [0.0, 0.0])


@pytest.mark.parametrize(
    "cell", [ZERO_TIMES_HUGE, MINUS_HUGE], ids=["4000-nines", "minus-10^400"]
)
def test_a_huge_exponent_validates(tmp_path, capsys, cell):
    path = metric_cell_config(tmp_path / "huge.json", cell)
    assert run(["validate", "--manifold", str(path)]) == EXIT_PASS
    assert "valid" in capsys.readouterr().out


def long_and_deep():
    """Inputs past any recursion limit, with their value and x1-derivative at x1 = 2."""
    terms = " + ".join(f"{k}*x1" for k in range(5000))
    return [
        (terms, 12497500 * 2.0, 12497500.0),
        ("(" * 1000 + "x1*3 - 1" + ")" * 1000, 5.0, 3.0),
        ("(" * 1000 + "x1" + ")^1" * 1000, 2.0, 1.0),
        ("-" * 1001 + "x1", -2.0, -1.0),
    ]


@pytest.mark.parametrize("text, value, slope", long_and_deep())
def test_long_and_deeply_nested_expressions_evaluate(text, value, slope):
    expr = parse_expression(text, 1)
    assert expr.evaluate([2.0]) == value
    out = expr.evaluate(Dual.seed([2.0]))
    assert out.value == value
    assert out.grad.tolist() == [slope]


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
    stack = []
    for op, arg in expr.program:
        if op == "num":
            stack.append(abs(arg))
        elif op == "var":
            stack.append(abs(coords[arg]))
        elif op == "^":
            stack.append(stack.pop() ** arg)
        elif op != "neg":
            right, left = stack.pop(), stack.pop()
            stack.append(left * right if op == "*" else left + right)
    return stack.pop()


leaves = st.one_of(
    st.integers(1, 4).map(lambda k: f"x{k}"),
    st.floats(-4.0, 4.0, allow_nan=False).map(repr),
)


# random expressions without parentheses around their binary operations,
# so precedence and association decide the reading
bare_trees = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: "{} {} {}".format(*t)
        ),
        st.tuples(sub, st.integers(0, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)


# the generator of the three-way property: the leaves above, all four
# operations, and exponents from -2 to 5, zero and far past the float range
HUGE_EXPONENTS = (2**64 + 1, int("9" * 400), -(10**400))
programs = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: "({} {} {})".format(*t)
        ),
        st.tuples(
            sub, st.one_of(st.integers(-2, 5), st.sampled_from((0,) + HUGE_EXPONENTS))
        ).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)
STEP = 1e-6
BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


class Rounded:
    """A float and its gradient, with first-order bounds on their rounding.

    Running error analysis of the products and sums the dual path takes:
    each operation adds its operands' error bounds, weighted by its partial
    derivatives, and one rounding of each number it forms.  The bounds are
    in units of the float epsilon.
    """

    def __init__(self, v, g, ev=0.0, eg=0.0):
        self.v, self.g, self.ev, self.eg = v, g, ev, eg

    def __add__(self, o):
        v, g = self.v + o.v, self.g + o.g
        return Rounded(v, g, self.ev + o.ev + abs(v), self.eg + o.eg + abs(g))

    def __neg__(self):
        return Rounded(-self.v, -self.g, self.ev, self.eg)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        left, right = self.v * o.g, o.v * self.g
        v, g = self.v * o.v, left + right
        ev = abs(self.v) * o.ev + abs(o.v) * self.ev + abs(v)
        eg = (
            abs(self.v) * o.eg + abs(o.g) * self.ev + abs(o.v) * self.eg
            + abs(self.g) * o.ev + abs(left) + abs(right) + abs(g)
        )
        return Rounded(v, g, ev, eg)

    def __truediv__(self, o):
        q = self.v / o.v
        t = q * o.g
        g = (self.g - t) / o.v
        ev = (self.ev + abs(q) * o.ev) / abs(o.v) + abs(q)
        eg = (
            self.eg + abs(q) * o.eg + abs(o.g) * ev + abs(g) * o.ev
            + abs(t) + abs(self.g - t)
        ) / abs(o.v) + abs(g)
        return Rounded(q, g, ev, eg)

    def __rtruediv__(self, c):
        return Rounded(c, 0.0) / self


def subexpressions(expr, num, var):
    """Every subexpression's value, in program order, as ``Expr.evaluate``.

    ``num`` makes a number of each literal and ``var`` of each coordinate
    index: floats for the float path, ``Rounded`` for bounds on the
    rounding of the dual path.
    """
    stack, values = [], []
    for op, arg in expr.program:
        if op == "num":
            stack.append(num(arg))
        elif op == "var":
            stack.append(var(arg))
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            stack[-1] = power(stack[-1], arg) if arg else num(1.0)
        else:
            right = stack.pop()
            stack[-1] = BINARY[op](stack[-1], right)
        values.append(stack[-1])
    return values


def float_subexpressions(expr, point):
    return np.array(subexpressions(expr, lambda c: c, lambda i: point[i]))


def gradient_rounding(expr, point):
    """A bound on the rounding of the dual gradient at ``point``, in epsilons."""
    eye = np.eye(len(point))
    whole = subexpressions(
        expr, lambda c: Rounded(c, 0.0), lambda i: Rounded(point[i], eye[i])
    )[-1]
    return np.broadcast_to(whole.eg, (len(point),))


def neighbours(expr, point, i, h):
    shift = np.eye(len(point))[i] * h
    return (
        float_subexpressions(expr, point + shift),
        float_subexpressions(expr, point - shift),
    )


@settings(deadline=None)
@given(programs, st.lists(st.floats(-0.95, 0.95), min_size=8, max_size=8))
def test_float_and_dual_evaluation_agree(text, coords):
    """Float values, dual values and dual gradients, on two points at once.

    The values must be equal, inf and NaN included.  Where the value and
    every subexpression's value are finite, the gradient must match central
    differences, to within the two's rounding, wherever those can be
    trusted: every subexpression is smooth across the step, its quotient
    finite, moved by less than 1e-5 of itself by a step 0.7 times as long,
    and its second difference below 1e-3 of its first.  That leaves out the
    points within reach of a pole, where a subexpression's derivative can
    leave the float range (1/x1 at x1 = 1e-200 has derivative -1e400)
    although the whole has a finite one.  Where the bound on the dual
    path's rounding itself leaves the float range, as a power of 10^400
    multiplies the rounding of its base by that, the gradient must be
    finite.
    """
    expr = parse_expression(text, 4)
    points = np.reshape(coords, (2, 4))
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    with np.errstate(all="ignore"):
        out = expr.evaluate(Dual.seed(points))
        if not isinstance(out, Dual):  # a program without a variable
            out = Dual(np.broadcast_to(out, (2,)), np.zeros((2, 4)))
        for n, point in enumerate(points):
            value = expr.evaluate(list(point))
            assert np.array_equal(value, out.value[n], equal_nan=True)
            mid = float_subexpressions(expr, point)
            if not np.isfinite(mid).all():
                continue
            rounding = gradient_rounding(expr, point)
            for i, grad in enumerate(out.grad[n]):
                hi, lo = neighbours(expr, point, i, STEP)
                near_hi, near_lo = neighbours(expr, point, i, 0.7 * STEP)
                slope = (hi - lo) / (2 * STEP)
                # the rounding floor of a difference: a few ulps of the
                # larger neighbour, or of the smallest normal float
                noise = 16 * (eps * np.maximum(abs(hi), abs(lo)) + tiny)
                shorter = (near_hi - near_lo) / (1.4 * STEP)
                smooth = (
                    np.isfinite(slope)
                    & np.isclose(slope, shorter, rtol=1e-5, atol=0)
                    & (abs(hi - 2 * mid + lo) <= 1e-3 * abs(hi - lo) + noise)
                )
                if not smooth.all():
                    continue
                if np.isfinite(rounding[i]):
                    floor = noise[-1] / STEP + 2 * eps * rounding[i]
                    assert np.isclose(grad, slope[-1], rtol=1e-4, atol=floor)
                else:  # a bound past the float range bounds nothing
                    assert np.isfinite(grad)


@settings(max_examples=300, deadline=None)
@given(bare_trees, st.lists(st.floats(-0.95, 0.95), min_size=4, max_size=4))
def test_evaluation_matches_python_arithmetic(text, point):
    """Python's own parser is an oracle for precedence, associativity and signs."""
    expr = parse_expression(text, 4)
    bound = magnitude(expr, point)
    assume(bound < 1e100)
    names = {f"x{k + 1}": x for k, x in enumerate(point)}
    oracle = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
    assert abs(expr.evaluate(point) - oracle) <= 1e-12 * bound
