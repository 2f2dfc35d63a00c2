"""First-order forward-mode differentiation numbers.

A ``Dual`` carries a value together with the gradient of that value with
respect to a fixed tuple of active coordinates.  Arithmetic propagates the
gradient exactly (up to rounding), so derivatives of polynomial and rational
chart data carry no truncation error.  Finite differences are used only as an
independent oracle in the test suite.  A dual may carry a whole batch of
points; arithmetic is elementwise, so each point gets exactly the numbers
it would get on its own.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Number = (int, float, np.integer, np.floating)
Scalar = Union["Dual", int, float]


class Dual:
    """Number of the form a + sum_i b_i eps_i with eps_i eps_j = 0.

    ``value`` has a batch shape S (``np.float64`` for S = (), one point) and
    ``grad`` has shape S + (d,).  Plain and numpy numbers act as constants.
    """

    __slots__ = ("value", "grad")

    # numpy defers to the reflected operator, so that np.float64 * Dual
    # reaches Dual.__rmul__ instead of becoming an object array.
    __array_ufunc__ = None

    def __init__(self, value, grad) -> None:
        self.value = value if isinstance(value, np.ndarray) else np.float64(value)
        self.grad = np.asarray(grad, dtype=float)

    @staticmethod
    def constant(value, width: int) -> "Dual":
        return Dual(value, np.zeros(width))

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
        if isinstance(other, Number):
            return Dual(self.value + float(other), self.grad)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.grad - other.grad)
        if isinstance(other, Number):
            return Dual(self.value - float(other), self.grad)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Number):
            return Dual(float(other) - self.value, -self.grad)
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
            c = float(other)
            v = c / self.value
            return Dual(v, (-v / self.value)[..., None] * self.grad)
        return NotImplemented

    def __neg__(self):
        return Dual(-self.value, -self.grad)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            return NotImplemented
        n = int(exponent)
        if n < 0:
            return 1.0 / (self ** (-n))
        result = Dual.constant(1.0, self.grad.shape[-1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def value_of(x: Scalar):
    """Value of a number that may or may not be a Dual (an array for a batch)."""
    if isinstance(x, Dual):
        return x.value
    return float(x)


def grad_of(x: Scalar, width: int) -> np.ndarray:
    """Gradient of a number; constants contribute a zero vector."""
    if isinstance(x, Dual):
        return x.grad
    return np.zeros(width)
