"""Octonion multiplication table, alternativity, and the seven-dim cross product."""

import numpy as np
from hypothesis import given, strategies as st

from aegeom.octonion import TRIPLES, cross_matrix, multiply


def unit(i):
    e = [0.0] * 8
    e[i] = 1.0
    return e


def as_vec(x):
    return np.array(x, dtype=float)


def test_real_unit_is_identity():
    one = unit(0)
    x = [0.5, -1.0, 2.0, 0.0, 3.0, -2.5, 1.0, 0.25]
    assert np.allclose(multiply(one, x), x)
    assert np.allclose(multiply(x, one), x)


def test_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        sq = multiply(unit(i), unit(i))
        expected = [-1.0] + [0.0] * 7
        assert np.allclose(sq, expected)


def test_defining_triples_and_their_rotations():
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            assert np.allclose(multiply(unit(x), unit(y)), unit(z))
            assert np.allclose(multiply(unit(y), unit(x)), as_vec(unit(z)) * -1)


def test_spot_products():
    # a few entries checked by hand against the oriented triples
    assert np.allclose(multiply(unit(1), unit(2)), unit(3))
    assert np.allclose(multiply(unit(1), unit(4)), unit(5))
    assert np.allclose(multiply(unit(1), unit(7)), unit(6))
    assert np.allclose(multiply(unit(2), unit(5)), unit(7))
    assert np.allclose(multiply(unit(3), unit(6)), unit(5))
    assert np.allclose(multiply(unit(6), unit(1)), unit(7))


def test_multiplication_is_bilinear():
    rng = np.random.default_rng(2)
    x, y, z = rng.standard_normal((3, 8))
    left = as_vec(multiply(2.0 * x + y, z))
    right = 2.0 * as_vec(multiply(x, z)) + as_vec(multiply(y, z))
    assert np.allclose(left, right, atol=1e-12)


def test_multiplication_is_not_commutative_or_associative():
    e1, e2, e4 = unit(1), unit(2), unit(4)
    assert not np.allclose(multiply(e1, e2), multiply(e2, e1))
    lhs = multiply(multiply(e1, e2), e4)
    rhs = multiply(e1, multiply(e2, e4))
    assert not np.allclose(lhs, rhs)


octo = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=8, max_size=8
)


@given(octo, octo)
def test_alternative_law(u, v):
    uu_v = as_vec(multiply(multiply(u, u), v))
    u_uv = as_vec(multiply(u, multiply(u, v)))
    assert np.max(np.abs(uu_v - u_uv)) < 1e-9 * max(1.0, np.max(np.abs(uu_v)))


@given(octo, octo)
def test_norm_is_multiplicative(u, v):
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    nprod = np.linalg.norm(multiply(u, v))
    assert abs(nprod - nu * nv) < 1e-9 * max(1.0, nu * nv)


def test_cross_matches_imaginary_part_of_product():
    rng = np.random.default_rng(9)
    for trial in range(10):
        u7, v7 = rng.standard_normal((2, 7))
        prod = multiply([0.0, *u7], [0.0, *v7])
        assert np.allclose(cross_matrix(u7) @ v7, prod[1:], atol=1e-12)


def test_cross_is_anticommutative_and_orthogonal():
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal((2, 7))
    c = as_vec(cross_matrix(u) @ v)
    assert np.allclose(c, -as_vec(cross_matrix(v) @ u), atol=1e-12)
    assert abs(np.dot(c, u)) < 1e-12 * np.linalg.norm(u)
    assert abs(np.dot(c, v)) < 1e-12 * np.linalg.norm(v)


def test_double_cross_contracts_to_projection():
    # u x (u x v) = <u,v> u - |u|^2 v
    rng = np.random.default_rng(14)
    for trial in range(10):
        u, v = rng.standard_normal((2, 7))
        lhs = as_vec(cross_matrix(u) @ (cross_matrix(u) @ v))
        rhs = np.dot(u, v) * as_vec(u) - np.dot(u, u) * as_vec(v)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_unit_cross_squares_to_minus_one_on_orthogonal_vectors():
    rng = np.random.default_rng(21)
    u = rng.standard_normal(7)
    u /= np.linalg.norm(u)
    w = rng.standard_normal(7)
    w -= np.dot(w, u) * u
    ww = as_vec(cross_matrix(u) @ (cross_matrix(u) @ w))
    assert np.allclose(ww, -w, atol=1e-12)
