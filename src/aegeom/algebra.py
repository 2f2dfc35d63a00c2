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

Dimensions come from two routes that share no step, and any disagreement
raises, because the constraint coefficients are integers and both routes
must agree exactly.  Both read the whole system at every n.  The numeric
route takes the singular values of the independent blocks of the system's
sparsity pattern.  The exact route, ``linalg.exact_nullity``, solves the
system's identification rows as a signed graph and eliminates what is left
over the integers.  ``closed_form_dimension`` states the dimensions the
theorems give, and ``subspace_dimension`` returns a value only once both
routes agree with it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionOracleMismatch, TheoremViolation, UnsupportedDimension
from .linalg import (
    NULL_SPACE_TOL,
    Entries,
    LinearConstraintSystem,
    exact_nullity,
    null_space,
    numeric_nullity,
)
from .manifold import KINDS, StructureKind, axiom_residuals, standard_pair

MAX_HALF_DIM = 3


class SubspaceQuery(enum.Enum):
    """Which extra constraint to add on top of the two base symmetries."""

    FULL = "full"
    ALTERNATING = "alternating_first_two"
    SYMMETRIC = "symmetric_first_two"


@dataclass(frozen=True)
class ModelFiber:
    """Exact integer model of one tangent space with a compatible pair.

    On construction the pair must meet every structure axiom exactly, as
    ``manifold.axiom_residuals`` states them, and the inner form must be
    nondegenerate.  ``base_rows`` is built on first use and kept with the
    fiber, so every system of one fiber shares it.
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
        j0 = _integer_matrix(self.j0, "j0")
        inner = _integer_matrix(self.inner, "inner form")
        j0.setflags(write=False)
        inner.setflags(write=False)
        object.__setattr__(self, "j0", j0)
        object.__setattr__(self, "inner", inner)
        d = 2 * self.n
        if j0.shape != (d, d) or inner.shape != (d, d):
            raise ValueError(f"fiber matrices must be {d}x{d}")
        for key, residual in axiom_residuals(self.kind, inner[None], j0[None]).items():
            if residual.any():
                raise ValueError(f"{self.kind.label} fiber pair fails {key}")
        if round(float(np.linalg.det(inner.astype(float)))) == 0:
            raise ValueError("inner form is degenerate")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @functools.cached_property
    def base_rows(self) -> Entries:
        """Entry arrays of the two base symmetries' rows, read-only."""
        rows = _base_rows(self)
        for a in rows:
            a.setflags(write=False)
        return rows

    @staticmethod
    def standard(kind: StructureKind, n: int) -> "ModelFiber":
        """The fiber of ``manifold.standard_pair(kind, n)``."""
        if not 1 <= n <= MAX_HALF_DIM:
            raise UnsupportedDimension(
                f"half-dimension {n} outside 1..{MAX_HALF_DIM}"
            )
        inner, j0 = standard_pair(kind, n)
        return ModelFiber(n=n, kind=kind, j0=j0, inner=inner)

    def conjugated(self, s: np.ndarray) -> "ModelFiber":
        """Fiber seen through the integer basis change x -> s x.

        ``s`` must be unimodular so that the transported matrices stay
        integral.
        """
        s = _integer_matrix(s, "basis change")
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


def _integer_matrix(values, what: str) -> np.ndarray:
    """``values`` as an int array; an entry that is not an integer raises.

    A plain cast would truncate 1.9 to 1 and pass a different matrix on.
    """
    matrix = np.array(values)
    if matrix.dtype.kind not in "biu" and not (
        matrix.dtype.kind == "f"
        and np.isfinite(matrix).all()
        and (matrix == np.rint(matrix)).all()
    ):
        raise ValueError(f"{what} has an entry that is not an integer")
    return matrix.astype(int)


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
    parts = [fiber.base_rows]
    if query is SubspaceQuery.ALTERNATING:
        parts.append(_first_two_rows(d, 1.0))
    elif query is SubspaceQuery.SYMMETRIC:
        parts.append(_first_two_rows(d, -1.0))
    return _system(d, *parts)


def subspace_dimension(fiber: ModelFiber, query: SubspaceQuery) -> int:
    """Dimension of the requested subspace, numerically, exactly and in closed form.

    The SVD dimension (singular values only) and the exact integer
    dimension of the whole system must agree; a mismatch raises
    ``DimensionOracleMismatch``.  The agreed value must then equal
    ``closed_form_dimension`` for the fiber's kind and half-dimension, or
    ``TheoremViolation`` is raised.
    """
    system = build_constraints(fiber, query)
    numeric_dim = numeric_nullity(system)
    exact_dim = exact_nullity(system)
    if numeric_dim != exact_dim:
        raise DimensionOracleMismatch(
            f"numeric dimension {numeric_dim} != exact dimension {exact_dim} "
            f"for {fiber.kind.label}, n={fiber.n}, query={query.value}"
        )
    expected = closed_form_dimension(fiber.kind, fiber.n, query)
    if exact_dim != expected:
        raise TheoremViolation(
            f"{query.value} subspace has dimension {exact_dim} for "
            f"{fiber.kind.label}, n={fiber.n}; the closed form gives {expected}"
        )
    return exact_dim


def closed_form_dimension(kind: StructureKind, n: int, query: SubspaceQuery) -> int:
    """The dimension the theorems give for a subspace, in half-dimension n.

    When alpha*epsilon = -1 the full subspace has dimension 2n^2(n-1) and
    the alternating one 2*C(n, 3), the realified (3,0)-forms of the
    Gray-Hervella class W1; when alpha*epsilon = +1 the full subspace has
    dimension 2n^3 and the alternating one is zero.  The symmetric
    subspace is zero for every kind.

    The J-pair split states the dimension for every n as the polynomial
    n*e_1 + C(n, 2)*e_2 + C(n, 3)*e_3, where e_k is the dimension on the
    unknowns that use exactly k given J-pairs: a row never mixes pair
    sets, and every pair is alike.  That split is a lemma about the
    constraint builders, and ``tests/test_algebra.py`` checks it row for
    row on the standard fibers.  The values of (e_1, e_2, e_3):

        alpha*epsilon   full           alternating   symmetric
        -1              (0, 8, 12)     (0, 0, 2)     (0, 0, 0)
        +1              (2, 12, 12)    (0, 0, 0)     (0, 0, 0)

    (Gray and Hervella, "The sixteen classes of almost Hermitian
    manifolds", 1980, for the -1 counts.)  Both this closed form and that
    polynomial have degree at most 3 in n, so their agreement at
    n = 0, 1, 2, 3 makes them equal for every n, which is the theorem for
    every n.
    """
    if query is SubspaceQuery.SYMMETRIC:
        return 0
    if kind.product == -1:
        if query is SubspaceQuery.FULL:
            return 2 * n * n * (n - 1)
        return 2 * math.comb(n, 3)
    return 2 * n**3 if query is SubspaceQuery.FULL else 0


def dimension_table() -> dict:
    """Subspace dimensions for every kind and half-dimension up to MAX_HALF_DIM.

    Keys are kind labels; values map the half-dimension to the dimensions
    of the full, alternating, and symmetric subspaces, each from
    ``subspace_dimension``, so every cell has passed its closed form.
    """
    table: dict = {}
    for kind in KINDS:
        fibers = [ModelFiber.standard(kind, n) for n in range(1, MAX_HALF_DIM + 1)]
        table[kind.label] = {
            fiber.n: {q.value: subspace_dimension(fiber, q) for q in SubspaceQuery}
            for fiber in fibers
        }
    return table


def alternating_definitions_coincide(fiber: ModelFiber, alternating_dim: int) -> bool:
    """Check that two renderings of the alternating condition agree.

    The condition "phi vanishes when the first two arguments coincide" can
    be written by polarization (diagonal rows plus symmetric off-diagonal
    pairs) or directly as antisymmetry in the first two slots.  Both
    constraint sets must cut out the same subspace.  One containment is
    enough: the polarized null space U inside the antisymmetric one V, with
    dim U = dim V, gives U = V.

    ``alternating_dim`` is dim V, as ``subspace_dimension(fiber,
    SubspaceQuery.ALTERNATING)`` gives it once both rank routes and the
    closed form agree; ``algebra-table`` passes the value its
    ``dimension_table`` computed.
    The basis of U comes from ``null_space``, and one product over the
    antisymmetric system's entries tests that it lies in V.
    """
    d = fiber.dim
    dim, basis = null_space(_system(d, fiber.base_rows, _polarized_rows(d)))
    if dim != alternating_dim:
        return False
    antisymmetric = build_constraints(fiber, SubspaceQuery.ALTERNATING)
    row_of, cols, coeffs = antisymmetric.entries
    vectors = np.array(basis).reshape(dim, antisymmetric.n_unknowns)
    units = vectors / np.max(np.abs(vectors), axis=1, keepdims=True)
    residual = np.zeros((antisymmetric.n_rows, dim))
    np.add.at(residual, row_of, coeffs[:, None] * units[:, cols].T)
    return float(np.abs(residual).max(initial=0.0)) < NULL_SPACE_TOL
