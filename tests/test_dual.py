"""Forward-mode dual numbers against analytic and finite-difference oracles.

Matrix duals are also checked against entrywise scalar-dual arithmetic: the
nested-loop product and Gauss-Jordan inverse below are the reference.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aegeom.dual import Dual, inv, matrix


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
    # plain entries stack to a float array; beside a dual they are constants
    plain = matrix([[2.5, 1], [np.float64(0.0), -1.0]])
    assert isinstance(plain, np.ndarray) and plain.dtype == float
    assert np.array_equal(plain, [[2.5, 1.0], [0.0, -1.0]])
    (x,) = Dual.seed([1.0])
    mixed = matrix([[x, 2.5]])
    assert np.array_equal(mixed.value, [[1.0, 2.5]])
    assert np.array_equal(mixed.grad, [[[1.0], [0.0]]])


def test_matrix_puts_array_entries_on_trailing_axes():
    x = np.array([1.0, 2.0, 3.0])
    stack = matrix([[x, 0.0], [1.0, x * x]])
    assert stack.shape == (3, 2, 2)
    assert np.array_equal(stack[2], [[3.0, 0.0], [1.0, 9.0]])
    with pytest.raises(ValueError):
        matrix([[1.0, 2.0], [3.0]])


J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
K = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])


def matrix_field(v):
    """A 3x2 matrix function using every matrix operation of ``Dual``."""
    x, y = v
    a = matrix([[1.0 + 0.1 * x * y, 0.2 * x], [0.3 * y * y, 1.0 - 0.1 * x]])
    b = matrix([[x, 1.0, y], [x * y, -y, 2.0]])
    c = J0 @ inv(a) @ b - K
    return (K - c).T @ (np.eye(2) + a) @ J0


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k_range = range(len(b))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for k in k_range:
                if k:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def inv_small(a):
    """Gauss-Jordan inverse without pivoting, for near-identity matrices."""
    n = len(a)
    work = [list(row) for row in a]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        scale = 1.0 / work[col][col]
        for j in range(n):
            work[col][j] = work[col][j] * scale
            inv[col][j] = inv[col][j] * scale
        for row in range(n):
            if row == col:
                continue
            factor = work[row][col]
            for j in range(n):
                work[row][j] = work[row][j] - factor * work[col][j]
                inv[row][j] = inv[row][j] - factor * inv[col][j]
    return inv


def entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matrix_field_by_entries(v):
    """``matrix_field`` in scalar-dual arithmetic, one entry at a time."""
    x, y = v
    a = [[1.0 + 0.1 * x * y, 0.2 * x], [0.3 * y * y, 1.0 - 0.1 * x]]
    b = [[x, 1.0, y], [x * y, -y, 2.0]]
    j0, k, eye = J0.tolist(), K.tolist(), np.eye(2).tolist()
    c = entrywise(lambda p, q: p - q, mat_mul(mat_mul(j0, inv_small(a)), b), k)
    left = [list(col) for col in zip(*entrywise(lambda p, q: p - q, k, c))]
    return mat_mul(mat_mul(left, entrywise(lambda p, q: p + q, eye, a)), j0)


@pytest.mark.parametrize("point", [(0.3, -0.7), (-1.2, 0.4), (2.0, 1.5)])
def test_matrix_operations_match_entrywise_scalar_duals(point):
    dual = matrix_field(Dual.seed(point))
    cells = matrix_field_by_entries(Dual.seed(point))
    assert dual.value.shape == (3, 2) and dual.grad.shape == (3, 2, 2)
    value = np.array([[c.value for c in row] for row in cells])
    grad = np.array([[c.grad for c in row] for row in cells])
    assert np.allclose(dual.value, value, rtol=1e-12, atol=1e-13)
    assert np.allclose(dual.grad, grad, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("point", [(0.3, -0.7), (-1.2, 0.4), (2.0, 1.5)])
def test_matrix_gradient_matches_finite_differences(point):
    grad = matrix_field(Dual.seed(point)).grad
    for i in range(2):
        fd = central_difference(matrix_field, point, i)
        assert np.allclose(grad[..., i], fd, rtol=1e-6, atol=1e-7)


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

    for fn, shape in ((f, ()), (matrix_field, (3, 2))):
        batch = fn(Dual.seed(points))
        assert batch.value.shape == (3,) + shape
        assert batch.grad.shape == (3,) + shape + (2,)
        for n, point in enumerate(points):
            single = fn(Dual.seed(point))
            assert np.array_equal(batch.value[n], single.value)
            assert np.array_equal(batch.grad[n], single.grad)
