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

Dimensions are computed numerically, from the singular values of the
independent blocks of each system's sparsity pattern, and cross-checked by
exact fraction-free integer elimination of the whole system; any
disagreement raises, because the constraint coefficients are integers and
both routes must agree exactly.  ``closed_form_dimension`` states the
dimensions the theorems give.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionOracleMismatch, UnsupportedDimension
from .linalg import (
    NULL_SPACE_TOL,
    Entries,
    LinearConstraintSystem,
    exact_nullity,
    null_space,
    numeric_nullity,
)
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


def _pairs(
    first: np.ndarray, second: np.ndarray, coeffs: Tuple[float, float]
) -> Entries:
    """Rows of two terms: slots ``first`` and ``second``, row by row in C order."""
    count = first.size
    cols = np.stack([first.ravel(), second.ravel()], axis=1).ravel()
    return np.full(count, 2), cols, np.tile(np.array(coeffs, dtype=float), count)


def _slots(d: int) -> np.ndarray:
    """``_slots(d)[i, j, k]`` is the unknown phi(e_i, e_j, e_k)."""
    return np.arange(d**3).reshape(d, d, d)


def _base_rows(fiber: ModelFiber) -> Entries:
    d = fiber.dim
    ae = fiber.kind.product
    slot = _slots(d)
    swap = _pairs(slot, slot.transpose(0, 2, 1), (1.0, -ae))
    # row (i, j, k), term (m, t): phi(e_i, J e_j, e_k) through slot (i, m, k)
    # when t = 0, and ae * phi(e_i, e_j, J e_k) through slot (i, j, m) when
    # t = 1; the terms run over m first, then t, and zero terms are absent
    a = np.arange(d)
    i, j, k, m = a[:, None, None, None], a[:, None, None], a[:, None], a
    cols = np.empty((d, d, d, d, 2), dtype=np.intp)
    cols[..., 0] = (i * d + m) * d + k
    cols[..., 1] = (i * d + j) * d + m
    coeffs = np.empty((d, d, d, d, 2))
    coeffs[..., 0] = fiber.j0[m, j]
    coeffs[..., 1] = ae * fiber.j0[m, k]
    present = coeffs != 0
    lengths = present.reshape(d**3, -1).sum(axis=1)
    return _concat(swap, (lengths, cols[present], coeffs[present]))


def _first_two_rows(d: int, sign: float) -> Entries:
    slot = _slots(d)
    return _pairs(slot, slot.transpose(1, 0, 2), (1.0, sign))


def _polarized_rows(d: int) -> Entries:
    """Vanishing on equal first arguments: diagonal rows, symmetric pairs."""
    slot = _slots(d)
    diagonal = slot[np.arange(d), np.arange(d)].ravel()
    i, j = np.triu_indices(d, 1)
    ones = np.ones(diagonal.size, dtype=np.intp)
    return _concat(
        (ones, diagonal, ones.astype(float)), _pairs(slot[i, j], slot[j, i], (1.0, 1.0))
    )


def _concat(*parts: Entries) -> Entries:
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _system(d: int, *parts: Entries) -> LinearConstraintSystem:
    return LinearConstraintSystem.from_entries(d**3, *_concat(*parts))


def build_constraints(
    fiber: ModelFiber, query: SubspaceQuery
) -> LinearConstraintSystem:
    """Sparse homogeneous constraints for the requested subspace."""
    d = fiber.dim
    parts = [_base_rows(fiber)]
    if query is SubspaceQuery.ALTERNATING:
        parts.append(_first_two_rows(d, 1.0))
    elif query is SubspaceQuery.SYMMETRIC:
        parts.append(_first_two_rows(d, -1.0))
    return _system(d, *parts)


def subspace_dimension(fiber: ModelFiber, query: SubspaceQuery) -> int:
    """Dimension of the requested subspace, numerically and exactly.

    The SVD dimension (singular values only) and the exact integer
    elimination must agree; a mismatch raises ``DimensionOracleMismatch``.
    """
    system = build_constraints(fiber, query)
    numeric_dim = numeric_nullity(system)
    exact_dim = exact_nullity(system)
    if numeric_dim != exact_dim:
        raise DimensionOracleMismatch(
            f"numeric dimension {numeric_dim} != exact dimension {exact_dim} "
            f"for {fiber.kind.label}, n={fiber.n}, query={query.value}"
        )
    return exact_dim


def closed_form_dimension(kind: StructureKind, n: int, query: SubspaceQuery) -> int:
    """The dimension the theorems give for a subspace, in half-dimension n.

    When alpha*epsilon = -1 the full subspace has dimension 2n^2(n-1) and
    the alternating one 2*C(n, 3), the realified (3,0)-forms of the
    Gray-Hervella class W1; when alpha*epsilon = +1 the full subspace has
    dimension 2n^3 and the alternating one is zero.  The symmetric
    subspace is zero for every kind.
    """
    if query is SubspaceQuery.SYMMETRIC:
        return 0
    if kind.product == -1:
        if query is SubspaceQuery.FULL:
            return 2 * n * n * (n - 1)
        return 2 * math.comb(n, 3)
    return 2 * n**3 if query is SubspaceQuery.FULL else 0


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


def alternating_definitions_coincide(fiber: ModelFiber) -> bool:
    """Check that two renderings of the alternating condition agree.

    The condition "phi vanishes when the first two arguments coincide" can
    be written by polarization (diagonal rows plus symmetric off-diagonal
    pairs) or directly as antisymmetry in the first two slots.  Both
    constraint sets must cut out the same subspace: equal dimensions and
    mutual containment of the null space bases.
    """
    d = fiber.dim
    base = _base_rows(fiber)
    sys_a = _system(d, base, _polarized_rows(d))
    sys_b = _system(d, base, _first_two_rows(d, 1.0))
    dim_a, basis_a = null_space(sys_a)
    dim_b, basis_b = null_space(sys_b)
    if dim_a != dim_b:
        return False
    for basis, other in ((basis_a, sys_b), (basis_b, sys_a)):
        if basis:
            vectors = np.stack(basis)
            units = vectors / np.max(np.abs(vectors), axis=1, keepdims=True)
            if float(np.max(np.abs(other.to_dense() @ units.T))) >= NULL_SPACE_TOL:
                return False
    return True
