"""Forward-mode dual numbers against analytic and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aegeom.dual import Dual, grad_of, value_of


def central_difference(f, point, i, h=1e-6):
    shifted = list(point)
    shifted[i] += h
    hi = f(shifted)
    shifted[i] -= 2 * h
    lo = f(shifted)
    return (hi - lo) / (2 * h)


def test_constant_has_zero_gradient():
    c = Dual.constant(3.5, 4)
    assert c.value == 3.5
    assert np.all(c.grad == 0.0)


def test_seed_produces_unit_gradients():
    x, y = Dual.seed([2.0, 5.0])
    assert x.value == 2.0 and y.value == 5.0
    assert np.array_equal(x.grad, [1.0, 0.0])
    assert np.array_equal(y.grad, [0.0, 1.0])


def test_polynomial_gradient_matches_analytic():
    x, y = Dual.seed([2.0, 3.0])
    f = x * x * y + y / x
    assert f.value == pytest.approx(13.5, rel=1e-12)
    # d/dx (x^2 y + y/x) = 2xy - y/x^2, d/dy = x^2 + 1/x
    assert f.grad[0] == pytest.approx(12.0 - 0.75, rel=1e-12)
    assert f.grad[1] == pytest.approx(4.5, rel=1e-12)


def test_reverse_operand_arithmetic():
    (x,) = Dual.seed([4.0])
    f = 3.0 - x
    assert f.value == -1.0 and f.grad[0] == -1.0
    g = 2.0 / x
    assert g.value == 0.5
    assert g.grad[0] == pytest.approx(-2.0 / 16.0, rel=1e-12)
    h = 1.5 + x
    assert h.value == 5.5 and h.grad[0] == 1.0
    k = 2.0 * x
    assert k.grad[0] == 2.0


def test_integer_powers_including_negative():
    (x,) = Dual.seed([2.0])
    assert (x**3).value == 8.0
    assert (x**3).grad[0] == pytest.approx(12.0, rel=1e-12)
    assert (x**0).value == 1.0
    assert (x**0).grad[0] == 0.0
    inv = x**-2
    assert inv.value == pytest.approx(0.25, rel=1e-12)
    assert inv.grad[0] == pytest.approx(-2.0 / 8.0, rel=1e-12)


def test_fractional_power_rejected():
    (x,) = Dual.seed([2.0])
    with pytest.raises(TypeError):
        x**0.5


def test_unary_plus_and_minus():
    (x,) = Dual.seed([1.5])
    assert (+x).value == 1.5
    assert (-x).value == -1.5
    assert (-x).grad[0] == -1.0


def test_value_and_grad_of_plain_floats():
    assert value_of(2.5) == 2.5
    assert np.all(grad_of(2.5, 3) == 0.0)
    (x,) = Dual.seed([1.0])
    assert value_of(x) == 1.0
    assert grad_of(x, 1)[0] == 1.0


coeffs = st.lists(
    st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=4, max_size=4
)


@given(coeffs, st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_cubic_derivative_matches_coefficient_rule(c, x0):
    (x,) = Dual.seed([x0])
    p = c[0] + c[1] * x + c[2] * x * x + c[3] * x * x * x
    expected = c[1] + 2 * c[2] * x0 + 3 * c[3] * x0 * x0
    assert p.grad[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(
    st.floats(min_value=0.5, max_value=3, allow_nan=False),
    st.floats(min_value=0.5, max_value=3, allow_nan=False),
)
def test_quotient_rule(a, b):
    x, y = Dual.seed([a, b])
    q = x / y
    assert q.grad[0] == pytest.approx(1.0 / b, rel=1e-12)
    assert q.grad[1] == pytest.approx(-a / (b * b), rel=1e-12)


@given(st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_product_rule_against_finite_differences(x0):
    def f(v):
        return (v[0] * v[0] + 1.0) * (v[0] - 3.0)

    (x,) = Dual.seed([x0])
    dual_val = f([x])
    fd = central_difference(lambda v: (v[0] ** 2 + 1.0) * (v[0] - 3.0), [x0], 0)
    assert dual_val.grad[0] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_numpy_scalars_act_as_constants():
    (x,) = Dual.seed([2.0])
    for y in (np.float64(3.0) * x, x * np.float64(3.0)):
        assert isinstance(y, Dual)
        assert y.value == 6.0 and y.grad[0] == 3.0
    z = np.float64(1.0) - x
    assert isinstance(z, Dual) and z.value == -1.0 and z.grad[0] == -1.0


def test_batched_duals_match_single_points_exactly():
    points = np.array([[2.0, 3.0], [0.5, -1.0], [4.0, 0.25]])

    def f(v):
        x, y = v
        return x * x * y + y / x - 2.0 / x**2 + (x - y) ** 3 / (1.0 + y * y)

    batch = f(Dual.seed(points))
    assert batch.value.shape == (3,) and batch.grad.shape == (3, 2)
    for n, point in enumerate(points):
        single = f(Dual.seed(point))
        assert batch.value[n] == single.value
        assert np.array_equal(batch.grad[n], single.grad)
