"""Sparse linear constraint systems and their null spaces.

Null spaces are computed by singular value decomposition with a cutoff
relative to the largest singular value, and cross-checked elsewhere by exact
fraction-free Gaussian elimination over the integers (``exact_nullity``),
which never rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSystem, SlotMismatch

NULL_SPACE_TOL = 1e-9

Row = Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class LinearConstraintSystem:
    """Homogeneous system A x = 0 stored as sparse rows of (index, coeff)."""

    n_unknowns: int
    rows: Tuple[Row, ...]

    @staticmethod
    def from_rows(
        n_unknowns: int, rows: Iterable[Sequence[Tuple[int, float]]]
    ) -> "LinearConstraintSystem":
        packed = []
        for row in rows:
            for idx, _ in row:
                if not 0 <= idx < n_unknowns:
                    raise SlotMismatch(
                        f"column {idx} out of range for {n_unknowns} unknowns"
                    )
            packed.append(tuple((int(i), float(c)) for i, c in row))
        return LinearConstraintSystem(n_unknowns, tuple(packed))

    def to_dense(self) -> np.ndarray:
        """Dense coefficient matrix; repeated columns in a row add up."""
        dense = np.zeros((len(self.rows), self.n_unknowns))
        packed = np.array(
            [entry for row in self.rows for entry in row], dtype=float
        ).reshape(-1, 2)
        row_of = np.repeat(np.arange(len(self.rows)), [len(r) for r in self.rows])
        np.add.at(dense, (row_of, packed[:, 0].astype(np.intp)), packed[:, 1])
        return dense


def null_space(
    system: LinearConstraintSystem,
    tol: float = NULL_SPACE_TOL,
    dense: Optional[np.ndarray] = None,
) -> Tuple[int, List[np.ndarray]]:
    """Dimension and orthonormal basis of the null space of the system.

    ``tol`` is relative to the largest singular value; singular values at or
    below the cutoff count as zero.  ``dense`` is ``system.to_dense()`` when
    the caller already holds it.  A system with at least as many rows as
    unknowns gets the thin SVD, whose V is already square; only a wide one
    needs the full V, and then pays for the full U as well.
    """
    _check_args(system, tol)
    if dense is None:
        dense = system.to_dense()
    n = system.n_unknowns
    full = dense.shape[0] < n
    _, sigma, vt = np.linalg.svd(dense, full_matrices=full)
    rank = _numeric_rank(sigma, tol)
    return n - rank, [vt[i] for i in range(rank, n)]


def numeric_nullity(
    system: LinearConstraintSystem, tol: float = NULL_SPACE_TOL
) -> int:
    """Null space dimension by the ``null_space`` cutoff, without a basis."""
    _check_args(system, tol)
    sigma = np.linalg.svd(system.to_dense(), compute_uv=False)
    return system.n_unknowns - _numeric_rank(sigma, tol)


def _check_args(system: LinearConstraintSystem, tol: float) -> None:
    if system.n_unknowns == 0:
        raise DegenerateSystem("system has no unknowns")
    if tol <= 0:
        raise ValueError("tolerance must be positive")


def _numeric_rank(sigma: np.ndarray, tol: float) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    largest = sigma[0] if sigma.size else 0.0
    if largest == 0.0:
        return 0
    return int(np.sum(sigma > tol * largest))


def exact_nullity(system: LinearConstraintSystem) -> int:
    """Null space dimension by exact Gaussian elimination over the integers.

    Each row is scaled to integers (floats are exact binary fractions), and
    elimination is fraction-free: ``row <- p*row - r*pivot`` with every row
    divided by the gcd of its entries, so the returned rank involves no
    rounding at all.  Pivot rows are kept in reduced form, zero in every
    other pivot column, to bound fill-in; all catalog constraint rows are
    short.
    """
    if system.n_unknowns == 0:
        raise DegenerateSystem("system has no unknowns")
    pivots: Dict[int, Dict[int, int]] = {}
    for raw in system.rows:
        row = _integer_row(raw)
        # reduced pivot rows bring no other pivot column into the row
        for col in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[col], col)
        if not row:
            continue
        pcol = min(row)
        for qcol, qrow in pivots.items():
            if pcol in qrow:
                pivots[qcol] = _eliminate(qrow, row, pcol)
        pivots[pcol] = row
    return system.n_unknowns - len(pivots)


def _integer_row(raw: Row) -> Dict[int, int]:
    """Primitive integer multiple of one sparse row, zeros dropped."""
    ratios = [(idx, coeff.as_integer_ratio()) for idx, coeff in raw]
    scale = math.lcm(*(den for _, (_, den) in ratios))
    row: Dict[int, int] = {}
    for idx, (num, den) in ratios:
        row[idx] = row.get(idx, 0) + num * (scale // den)
    return _primitive({c: v for c, v in row.items() if v})


def _eliminate(row: Dict[int, int], pivot: Dict[int, int], col: int) -> Dict[int, int]:
    """``p*row - r*pivot`` with ``col`` cleared, divided by its gcd."""
    g = math.gcd(pivot[col], row[col])
    p, r = pivot[col] // g, row[col] // g
    out = {c: p * v for c, v in row.items()}
    for c, v in pivot.items():
        acc = out.get(c, 0) - r * v
        if acc:
            out[c] = acc
        else:
            out.pop(c, None)
    return _primitive(out)


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row
