"""Octonion arithmetic over the basis 1, e1, ..., e7.

The multiplication table is fixed by seven oriented triples, each read
cyclically (so e1*e2 = e3 implies e2*e3 = e1 and e3*e1 = e2):

    e1*e2 = e3,   e1*e4 = e5,   e1*e7 = e6,   e2*e4 = e6,
    e2*e5 = e7,   e3*e4 = e7,   e3*e6 = e5,

together with e_i*e_i = -1 and e_i*e_j = -e_j*e_i for distinct i, j.  The
algebra is alternative: (u*u)*v = u*(u*v) for all u, v, which the test suite
checks on random inputs.  The induced cross product on the imaginary part
R^7 is u x v = Im(u*v); for unit u and v orthogonal to u it squares to -1,
which is what makes it usable as an almost complex structure on the sphere.

``multiply`` takes floats or ``Dual`` scalars and uses only ring
operations.  ``cross_matrix`` places the entries of u (numbers, arrays or
``Dual`` scalars) with their signs in the matrix of v -> u x v, so the cross
product of two vectors, or of a field with the columns of a Jacobian, is
one matrix product.
"""

from __future__ import annotations

from typing import List, Sequence

from .dual import matrix

TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def _build_tables():
    idx = [[0] * 8 for _ in range(8)]
    sgn = [[0] * 8 for _ in range(8)]
    for j in range(8):
        idx[0][j] = j
        sgn[0][j] = 1
        idx[j][0] = j
        sgn[j][0] = 1
    for i in range(1, 8):
        idx[i][i] = 0
        sgn[i][i] = -1
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            idx[x][y] = z
            sgn[x][y] = 1
            idx[y][x] = z
            sgn[y][x] = -1
    return idx, sgn


_IDX, _SGN = _build_tables()

# Bilinear terms of the imaginary-part cross product: result k accumulates
# sign * u_i * v_j, all indices 0-based within R^7.  Each (k, j) pair
# occurs at most once.
_CROSS_TERMS = tuple(
    (_IDX[i][j] - 1, i - 1, j - 1, _SGN[i][j])
    for i in range(1, 8)
    for j in range(1, 8)
    if i != j
)


def multiply(x: Sequence, y: Sequence) -> List:
    """Product of two octonions given as 8 coefficients (1, e1..e7)."""
    out = [0.0] * 8
    for i in range(8):
        xi = x[i]
        for j in range(8):
            s = _SGN[i][j]
            term = xi * y[j]
            k = _IDX[i][j]
            if s > 0:
                out[k] = out[k] + term
            else:
                out[k] = out[k] - term
    return out


def cross_matrix(u: Sequence):
    """Matrix C(u) with C(u) @ v = u x v for imaginary octonions u, v in R^7."""
    rows = [[0.0] * 7 for _ in range(7)]
    for k, i, j, s in _CROSS_TERMS:
        rows[k][j] = u[i] if s > 0 else -u[i]
    return matrix(rows)
