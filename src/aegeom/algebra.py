"""Pointwise linear algebra of structure-compatible 3-tensors.

At a single tangent space, the covariant derivative of the structure tensor
paired with the metric produces 3-tensors phi(x, y, z) obeying two linear
symmetries: swapping the last two arguments costs the factor alpha*epsilon,
and moving the structure tensor between the last two arguments costs
-alpha*epsilon.  ``TERMS`` writes them and the nearly and Codazzi conditions
once.  This module builds their rows over an exact integer model fiber and
measures the dimensions of the full subspace and of two refinements: the
alternating part (the pointwise model of nearly) and the part symmetric in
the first two arguments (the pointwise model of Codazzi).

Dimensions come from two routes that share no step, and any disagreement
raises, because the constraint coefficients are integers and both routes
must agree exactly.  ``subspace_dimensions`` gives each route the whole
systems of all its cells in one pass (``linalg.numeric_nullities``, over
the blocks of the sparsity pattern, and ``linalg.exact_nullities``), and
returns once both routes agree with ``closed_form_dimension``, which
states the dimensions the theorems give.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionOracleMismatch, TheoremViolation, UnsupportedDimension
from .linalg import Entries, LinearConstraintSystem, exact_nullities, numeric_nullities

# unused here, but perfbench/tracing.py wraps both names in this module, and
# tests/test_trace_names.py requires every name it wraps to resolve
from .linalg import exact_nullity, null_space  # noqa: F401
from .manifold import KINDS, StructureKind, axiom_residuals, standard_pair

MAX_HALF_DIM = 3

# Each condition on phi(x, y, z) = g((nabla_x J) y, z) as terms (c, p, o, j):
# row (x, y, z) sums c * (alpha*epsilon)**p * phi(v[o[0]], v[o[1]], v[o[2]])
# for v = (x, y, z), with J on argument j (None: no J).  Every phi meets BASE.
TERMS = {
    "pairing_symmetry": ((1, 0, (0, 1, 2), None), (-1, 1, (0, 2, 1), None)),
    "pairing_j_shift": ((1, 0, (0, 1, 2), 1), (1, 1, (0, 1, 2), 2)),
    "nearly": ((1, 0, (0, 1, 2), None), (1, 0, (1, 0, 2), None)),
    "codazzi": ((1, 0, (0, 1, 2), None), (-1, 0, (1, 0, 2), None)),
}
BASE = ("pairing_symmetry", "pairing_j_shift")


class SubspaceQuery(enum.Enum):
    """Which condition of ``TERMS`` to add on top of the two base symmetries."""

    FULL = "full"
    ALTERNATING = "alternating_first_two"
    SYMMETRIC = "symmetric_first_two"

    @property
    def condition(self) -> Optional[str]:
        return dict(ALTERNATING="nearly", SYMMETRIC="codazzi").get(self.name)


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
        rows = _concat(*(condition_rows(self, name) for name in BASE))
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


def condition_rows(fiber: ModelFiber, name: str) -> Entries:
    """Entry arrays of condition ``name``, rows (x, y, z) in C order.

    J on e_t gives an entry at each e_m with the factor j0[m, t], a term with
    no J one at m = 0; a row runs over m, then its terms, and skips zeros.
    """
    d, ae, terms = fiber.dim, fiber.kind.product, TERMS[name]
    a = np.arange(d)
    xyz = (a[:, None, None, None], a[:, None, None], a[:, None])
    m = a if any(j is not None for *_, j in terms) else a[:1]
    cols = np.empty((d, d, d, m.size, len(terms)), dtype=np.intp)
    coeffs = np.empty(cols.shape)
    for t, (coeff, power, order, j) in enumerate(terms):
        args = [xyz[o] for o in order]
        factor = m == 0 if j is None else fiber.j0[m, args[j]]
        coeffs[..., t] = coeff * ae**power * factor
        if j is not None:
            args[j] = m
        cols[..., t] = (args[0] * d + args[1]) * d + args[2]
    present = coeffs != 0
    return present.reshape(d**3, -1).sum(axis=1), cols[present], coeffs[present]


def sampled_condition(nj: np.ndarray, product: int, name: str) -> np.ndarray:
    """Condition ``name`` at each nj[p, x, b, y] = (nabla_x J)^b_y, with z raised."""
    parts = []
    for c, p, (o0, o1, o2), j in TERMS[name]:
        if j is not None or o2 != 2:
            raise ValueError(f"{name} needs g or J on the sampled stack")
        parts.append(c * product**p * nj.transpose(0, 1 + 2 * o0, 2, 1 + 2 * o1))
    return sum(parts[1:], parts[0])


def _polarized_rows(d: int) -> Entries:
    """Vanishing on equal first arguments, apart from ``TERMS``: diagonals, pairs."""
    slot = np.arange(d**3).reshape(d, d, d)
    diagonal = slot[np.arange(d), np.arange(d)].ravel()
    i, j = np.triu_indices(d, 1)
    pairs = np.stack([slot[i, j].ravel(), slot[j, i].ravel()], axis=1).ravel()
    lengths = np.repeat([1, 2], [diagonal.size, pairs.size // 2])
    return lengths, np.concatenate([diagonal, pairs]), np.ones(lengths.sum())


def _concat(*parts: Entries) -> Entries:
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _system(d: int, *parts: Entries) -> LinearConstraintSystem:
    return LinearConstraintSystem.from_entries(d**3, *_concat(*parts))


def build_constraints(
    fiber: ModelFiber, query: SubspaceQuery
) -> LinearConstraintSystem:
    """Sparse homogeneous constraints for the requested subspace."""
    extra = () if query.condition is None else (condition_rows(fiber, query.condition),)
    return _system(fiber.dim, fiber.base_rows, *extra)


def subspace_dimensions(cells: Sequence[Tuple[ModelFiber, SubspaceQuery]]) -> List[int]:
    """Each (fiber, query) subspace's dimension: numeric, exact, closed form.

    Each rank route runs once over the systems of all cells.  Then, cell by
    cell in order, the SVD dimension (singular values only) and the exact
    integer dimension must agree (else ``DimensionOracleMismatch``), and the
    agreed value must equal ``closed_form_dimension`` for the fiber's kind
    and half-dimension (else ``TheoremViolation``).
    """
    systems = [build_constraints(fiber, query) for fiber, query in cells]
    numeric = numeric_nullities(systems)
    exact = exact_nullities(systems)
    for (fiber, query), numeric_dim, exact_dim in zip(cells, numeric, exact):
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
    return exact


def subspace_dimension(fiber: ModelFiber, query: SubspaceQuery) -> int:
    """``subspace_dimensions`` of one cell."""
    return subspace_dimensions([(fiber, query)])[0]


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


def standard_fibers() -> List[ModelFiber]:
    """The standard fibers, kind by kind, for n = 1..MAX_HALF_DIM."""
    return [ModelFiber.standard(k, n + 1) for k in KINDS for n in range(MAX_HALF_DIM)]


def dimension_table(fibers: List[ModelFiber]) -> dict:
    """Subspace dimensions of each fiber, such as ``standard_fibers()`` gives.

    Keys are kind labels; values map the half-dimension to the dimensions
    of the full, alternating, and symmetric subspaces.  All cells come
    from one ``subspace_dimensions`` call, so every cell has passed its
    closed form.
    """
    dims = iter(subspace_dimensions([(f, q) for f in fibers for q in SubspaceQuery]))
    table: dict = {}
    for fiber in fibers:
        table.setdefault(fiber.kind.label, {})[fiber.n] = {
            q.value: next(dims) for q in SubspaceQuery
        }
    return table


def alternating_definitions_coincide(fiber: ModelFiber, alternating_dim: int) -> bool:
    """Check that two renderings of the alternating condition agree.

    The condition "phi vanishes when the first two arguments coincide" can
    be written by polarization (diagonal rows plus symmetric off-diagonal
    pairs) or directly as antisymmetry in the first two slots.  Both
    constraint sets must cut out the same subspace: for the polarized null
    space U and the antisymmetric one V, dim U = dim (U cut by V) = dim V
    gives U = V.  ``alternating_dim`` is dim V, on which both rank routes
    and the closed form agreed; ``exact_nullities`` gives the other two.
    """
    d = fiber.dim
    polarized = (fiber.base_rows, _polarized_rows(d))
    joined = polarized + (condition_rows(fiber, "nearly"),)
    dims = exact_nullities([_system(d, *polarized), _system(d, *joined)])
    return dims == [alternating_dim, alternating_dim]
