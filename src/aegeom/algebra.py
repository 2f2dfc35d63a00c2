"""Pointwise linear algebra of structure-compatible 3-tensors.

At a single tangent space, the covariant derivative of the structure tensor
paired with the metric produces 3-tensors phi(x, y, z) obeying two linear
symmetries: swapping the last two arguments costs the factor alpha*epsilon,
and moving the structure tensor between the last two arguments costs
-alpha*epsilon.  This module builds those constraints over an exact integer
model fiber and measures the dimensions of the resulting subspaces, plus
two refinements: the alternating part (vanishing on equal first arguments,
the pointwise model of the "nearly" condition) and the part symmetric in
the first two arguments (the pointwise model of the Codazzi condition).

Dimensions are computed numerically by SVD and cross-checked by exact
fraction-free integer elimination; any disagreement raises, because the
constraint coefficients are integers and both routes must agree exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DimensionOracleMismatch, UnsupportedDimension
from .linalg import LinearConstraintSystem, exact_nullity, null_space, numeric_nullity
from .manifold import KINDS, StructureKind

MAX_HALF_DIM = 3


class SubspaceQuery(enum.Enum):
    """Which extra constraint to add on top of the two base symmetries."""

    FULL = "full"
    ALTERNATING = "alternating_first_two"
    SYMMETRIC = "symmetric_first_two"


@dataclass(frozen=True)
class ModelFiber:
    """Exact integer model of one tangent space with its standard pair.

    ``j0`` squares to alpha times the identity and ``inner`` transforms
    with the factor epsilon under it; both facts are verified in integer
    arithmetic on construction.
    """

    n: int
    kind: StructureKind
    j0: np.ndarray
    inner: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_HALF_DIM:
            raise UnsupportedDimension(
                f"half-dimension {self.n} outside 1..{MAX_HALF_DIM}"
            )
        j0 = np.array(self.j0, dtype=int)
        inner = np.array(self.inner, dtype=int)
        j0.setflags(write=False)
        inner.setflags(write=False)
        object.__setattr__(self, "j0", j0)
        object.__setattr__(self, "inner", inner)
        d = 2 * self.n
        if j0.shape != (d, d) or inner.shape != (d, d):
            raise ValueError(f"fiber matrices must be {d}x{d}")
        alpha, epsilon = self.kind.alpha, self.kind.epsilon
        if not np.array_equal(j0 @ j0, alpha * np.eye(d, dtype=int)):
            raise ValueError("j0 squared is not alpha times the identity")
        if not np.array_equal(inner, inner.T):
            raise ValueError("inner form is not symmetric")
        if not np.array_equal(j0.T @ inner @ j0, epsilon * inner):
            raise ValueError("inner form is not epsilon-compatible with j0")
        if round(float(np.linalg.det(inner.astype(float)))) == 0:
            raise ValueError("inner form is degenerate")
        if self.kind.alpha == 1 and self.kind.epsilon == 1:
            if int(np.trace(j0)) != 0:
                raise ValueError("product-Riemannian fiber needs trace j0 = 0")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @staticmethod
    def standard(kind: StructureKind, n: int) -> "ModelFiber":
        """Block model: rotation blocks for alpha = -1, split for alpha = +1."""
        if not 1 <= n <= MAX_HALF_DIM:
            raise UnsupportedDimension(
                f"half-dimension {n} outside 1..{MAX_HALF_DIM}"
            )
        d = 2 * n
        if kind.alpha == -1:
            j0 = np.zeros((d, d), dtype=int)
            for b in range(n):
                j0[2 * b, 2 * b + 1] = -1
                j0[2 * b + 1, 2 * b] = 1
            if kind.epsilon == 1:
                inner = np.eye(d, dtype=int)
            else:
                inner = np.diag([1, -1] * n)
        else:
            j0 = np.diag([1] * n + [-1] * n)
            if kind.epsilon == 1:
                inner = np.eye(d, dtype=int)
            else:
                inner = np.zeros((d, d), dtype=int)
                inner[:n, n:] = np.eye(n, dtype=int)
                inner[n:, :n] = np.eye(n, dtype=int)
        return ModelFiber(n=n, kind=kind, j0=j0, inner=inner)

    def conjugated(self, s: np.ndarray) -> "ModelFiber":
        """Fiber seen through the integer basis change x -> s x.

        ``s`` must be unimodular so that the transported matrices stay
        integral.
        """
        s = np.array(s, dtype=int)
        d = self.dim
        if s.shape != (d, d):
            raise ValueError(f"basis change must be {d}x{d}")
        det = round(float(np.linalg.det(s.astype(float))))
        if det not in (-1, 1):
            raise ValueError("basis change must be unimodular")
        s_inv = np.rint(np.linalg.inv(s.astype(float))).astype(int)
        if not np.array_equal(s @ s_inv, np.eye(d, dtype=int)):
            raise ValueError("failed to invert basis change exactly")
        return ModelFiber(
            n=self.n,
            kind=self.kind,
            j0=s @ self.j0 @ s_inv,
            inner=s_inv.T @ self.inner @ s_inv,
        )


def _index(d: int, i: int, j: int, k: int) -> int:
    return (i * d + j) * d + k


def _base_rows(fiber: ModelFiber) -> List[List[Tuple[int, float]]]:
    d = fiber.dim
    ae = fiber.kind.product
    j0 = fiber.j0
    rows: List[List[Tuple[int, float]]] = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                rows.append(
                    [
                        (_index(d, i, j, k), 1.0),
                        (_index(d, i, k, j), float(-ae)),
                    ]
                )
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row: List[Tuple[int, float]] = []
                for m in range(d):
                    if j0[m, j]:
                        row.append((_index(d, i, m, k), float(j0[m, j])))
                    if j0[m, k]:
                        row.append((_index(d, i, j, m), float(ae * j0[m, k])))
                rows.append(row)
    return rows


def _first_two_rows(d: int, sign: float) -> List[List[Tuple[int, float]]]:
    return [
        [(_index(d, i, j, k), 1.0), (_index(d, j, i, k), sign)]
        for i in range(d)
        for j in range(d)
        for k in range(d)
    ]


def build_constraints(
    fiber: ModelFiber, query: SubspaceQuery
) -> LinearConstraintSystem:
    """Sparse homogeneous constraints for the requested subspace."""
    d = fiber.dim
    rows = _base_rows(fiber)
    if query is SubspaceQuery.ALTERNATING:
        rows += _first_two_rows(d, 1.0)
    elif query is SubspaceQuery.SYMMETRIC:
        rows += _first_two_rows(d, -1.0)
    return LinearConstraintSystem.from_rows(d**3, rows)


def subspace_dimension(
    fiber: ModelFiber, query: SubspaceQuery, tol: float = 1e-9
) -> int:
    """Dimension of the requested subspace, numerically and exactly.

    The SVD dimension (singular values only) and the exact integer
    elimination must agree; a mismatch raises ``DimensionOracleMismatch``.
    """
    system = build_constraints(fiber, query)
    numeric_dim = numeric_nullity(system, tol)
    exact_dim = exact_nullity(system)
    if numeric_dim != exact_dim:
        raise DimensionOracleMismatch(
            f"numeric dimension {numeric_dim} != exact dimension {exact_dim} "
            f"for {fiber.kind.label}, n={fiber.n}, query={query.value}"
        )
    return exact_dim


def dimension_table(max_n: int = MAX_HALF_DIM) -> dict:
    """Subspace dimensions for every kind and half-dimension up to max_n.

    Keys are kind labels; values map the half-dimension to the dimensions
    of the full, alternating, and symmetric subspaces, each computed by
    both the numeric and the exact route.
    """
    table: dict = {}
    for kind in KINDS:
        per_kind: dict = {}
        for n in range(1, max_n + 1):
            fiber = ModelFiber.standard(kind, n)
            per_kind[n] = {
                query.value: subspace_dimension(fiber, query)
                for query in SubspaceQuery
            }
        table[kind.label] = per_kind
    return table


def alternating_definitions_coincide(
    fiber: ModelFiber, tol: float = 1e-9
) -> bool:
    """Check that two renderings of the alternating condition agree.

    The condition "phi vanishes when the first two arguments coincide" can
    be written by polarization (diagonal rows plus symmetric off-diagonal
    pairs) or directly as antisymmetry in the first two slots.  Both
    constraint sets must cut out the same subspace: equal dimensions and
    mutual containment of the null space bases.
    """
    d = fiber.dim
    base = _base_rows(fiber)
    sys_a = LinearConstraintSystem.from_rows(d**3, base + _polarized_rows(d))
    sys_b = LinearConstraintSystem.from_rows(d**3, base + _first_two_rows(d, 1.0))
    dense_a = sys_a.to_dense()
    dense_b = sys_b.to_dense()
    dim_a, basis_a = null_space(sys_a, tol, dense_a)
    dim_b, basis_b = null_space(sys_b, tol, dense_b)
    if dim_a != dim_b:
        return False
    for basis, dense in ((basis_a, dense_b), (basis_b, dense_a)):
        for vec in basis:
            unit = vec / np.max(np.abs(vec))
            if float(np.max(np.abs(dense @ unit))) >= tol:
                return False
    return True


def _polarized_rows(d: int) -> List[List[Tuple[int, float]]]:
    """Vanishing on equal first arguments: diagonal rows, symmetric pairs."""
    rows: List[List[Tuple[int, float]]] = []
    for i in range(d):
        for k in range(d):
            rows.append([(_index(d, i, i, k), 1.0)])
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                rows.append(
                    [
                        (_index(d, i, j, k), 1.0),
                        (_index(d, j, i, k), 1.0),
                    ]
                )
    return rows
