"""First-order forward-mode differentiation numbers.

A ``Dual`` carries a value together with the gradient of that value with
respect to a fixed tuple of active coordinates.  Arithmetic propagates the
gradient exactly (up to rounding), so derivatives of polynomial and rational
chart data carry no truncation error.  Finite differences are used only as an
independent oracle in the test suite.  A dual may carry a whole batch of
points, and its value may end in two matrix axes: arithmetic is elementwise,
and ``@``, ``.mT`` and ``inv`` act on the matrix of each point, so each point
gets exactly the numbers it would get on its own.  ``matrix`` stacks nested
entries into such a matrix.  On plain input ``inv`` and ``matrix`` give
plain arrays and ``.mT`` is numpy's own, so a function written with them
takes one float point or a plain stack of points as well as duals.
"""

from __future__ import annotations

import numpy as np

Number = (int, float, np.integer, np.floating)
Constant = Number + (np.ndarray,)


class Dual:
    """Number of the form a + sum_i b_i eps_i with eps_i eps_j = 0.

    ``value`` has shape V, a batch shape S (``np.float64`` for S = (), one
    point) that may be followed by two matrix axes, and ``grad`` has shape
    V + (d,).  Plain and numpy numbers act as constants; so do arrays in
    ``+``, ``-`` and ``@``, where they must not add axes to V.
    """

    __slots__ = ("value", "grad")

    # numpy defers to the reflected operator, so that np.float64 * Dual
    # reaches Dual.__rmul__ instead of becoming an object array.
    __array_ufunc__ = None

    def __init__(self, value, grad) -> None:
        self.value = value if isinstance(value, np.ndarray) else np.float64(value)
        self.grad = np.asarray(grad, dtype=float)

    @staticmethod
    def seed(points) -> list["Dual"]:
        """Lift coordinates so that coordinate i carries unit derivative e_i.

        ``points`` has shape S + (d,): one point, or a batch of batch shape S.
        """
        coords = np.asarray(points, dtype=float)
        eye = np.eye(coords.shape[-1])
        columns = np.moveaxis(coords, -1, 0).copy()
        return [Dual(c, np.broadcast_to(e, coords.shape)) for c, e in zip(columns, eye)]

    def __repr__(self) -> str:
        return f"Dual({self.value!r}, {self.grad.tolist()!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.grad + other.grad)
        if isinstance(other, Constant):
            return Dual(self.value + other, self.grad)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.grad - other.grad)
        if isinstance(other, Constant):
            return Dual(self.value - other, self.grad)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Constant):
            return Dual(other - self.value, -self.grad)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.value[..., None] * other.grad
                + other.value[..., None] * self.grad,
            )
        if isinstance(other, Number):
            c = float(other)
            return Dual(self.value * c, self.grad * c)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.value / other.value
            grad = (self.grad - q[..., None] * other.grad) / other.value[..., None]
            return Dual(q, grad)
        if isinstance(other, Number):
            c = float(other)
            return Dual(self.value / c, self.grad / c)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, Number):
            v = float(other) / self.value
            # the quotient rule's grouping, -(v dx)/x: (-v/x) dx would
            # underflow to 0 where v/x leaves the float range but v dx/x not
            return Dual(v, -(v[..., None] * self.grad) / self.value[..., None])
        return NotImplemented

    def __neg__(self):
        return Dual(-self.value, -self.grad)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            return NotImplemented
        return power(self, int(exponent))

    def __matmul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value @ other.value,
                _left(self.value, other.grad) + _right(self.grad, other.value),
            )
        if isinstance(other, np.ndarray):
            return Dual(self.value @ other, _right(self.grad, other))
        return NotImplemented

    def __rmatmul__(self, other):
        if isinstance(other, np.ndarray):
            return Dual(other @ self.value, _left(other, self.grad))
        return NotImplemented

    @property
    def mT(self) -> "Dual":
        """The transpose of each point's matrix, as ``ndarray.mT``."""
        return Dual(np.swapaxes(self.value, -1, -2), np.swapaxes(self.grad, -2, -3))


def _left(a: np.ndarray, db: np.ndarray) -> np.ndarray:
    """a @ db for a gradient db: the derivative axis rides with the columns."""
    cols, width = db.shape[-2:]
    out = a @ db.reshape(db.shape[:-2] + (cols * width,))
    return out.reshape(out.shape[:-1] + (cols, width))


def _right(da: np.ndarray, b: np.ndarray) -> np.ndarray:
    """da @ b for a gradient da: the derivative axis becomes a row axis."""
    return np.swapaxes(np.swapaxes(da, -1, -2) @ b[..., None, :, :], -1, -2)


def power(x, n: int):
    """``x`` to the integer power ``n`` by the same products on floats and duals.

    Binary exponentiation on ``*`` from the lowest set bit of ``n`` up, with
    no squaring past the highest, and ``(1.0 / x)^-n`` for a negative ``n``,
    so a power past the float range reads inf or 0, and where it reads 0
    its gradient does too, not the NaN of ``1.0 / inf``.  ``x^0`` is one at
    every point of x, with zero gradient.
    """
    if n < 0:
        return power(1.0 / x, -n)
    if n == 0:
        if isinstance(x, Dual):
            return Dual(np.ones_like(x.value), np.zeros_like(x.grad))
        return np.ones_like(x, dtype=float)[()]
    while not n & 1:
        x = x * x
        n >>= 1
    result = x
    while n := n >> 1:
        x = x * x
        if n & 1:
            result = result * x
    return result


def inv(a):
    """Inverse of each point's matrix, with d(A^-1) = -A^-1 dA A^-1.

    Plain arrays go to ``np.linalg.inv``, which raises ``LinAlgError`` for
    an exactly singular matrix.
    """
    if not isinstance(a, Dual):
        return np.linalg.inv(a)
    v = np.linalg.inv(a.value)
    return Dual(v, -_right(_left(v, a.grad), v))


def matrix(rows):
    """Stack nested entries (numbers, arrays or duals) on two trailing axes.

    Array entries and dual values share one batch shape S or are scalars,
    and the value has shape S + (rows, columns).  The result is a ``Dual``
    when any entry is one, the other entries having zero gradient, and a
    plain float array otherwise.
    """
    shape = (len(rows), len(rows[0]))
    if any(len(row) != shape[1] for row in rows):
        raise ValueError("matrix rows differ in length")
    cells = [cell for row in rows for cell in row]
    values = [cell.value if isinstance(cell, Dual) else cell for cell in cells]
    batch = next((v.shape for v in values if isinstance(v, np.ndarray)), ())
    value = np.empty(batch + (len(cells),))
    for k, v in enumerate(values):
        value[..., k] = v
    value = value.reshape(batch + shape)
    grads = [(k, cell.grad) for k, cell in enumerate(cells) if isinstance(cell, Dual)]
    if not grads:
        return value
    grad = np.zeros(batch + (len(cells), grads[0][1].shape[-1]))
    for k, g in grads:
        grad[..., k, :] = g
    return Dual(value, grad.reshape(batch + shape + grad.shape[-1:]))
