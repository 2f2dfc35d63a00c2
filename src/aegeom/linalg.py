"""Sparse linear constraint systems and their null spaces.

Null spaces are computed by singular value decomposition with a cutoff
relative to the largest singular value, and cross-checked elsewhere by exact
rational Gaussian elimination (``exact_nullity``), which never rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

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
        dense = np.zeros((len(self.rows), self.n_unknowns))
        for r, row in enumerate(self.rows):
            for idx, coeff in row:
                dense[r, idx] += coeff
        return dense


def null_space(
    system: LinearConstraintSystem, tol: float = NULL_SPACE_TOL
) -> Tuple[int, List[np.ndarray]]:
    """Dimension and orthonormal basis of the null space of the system.

    ``tol`` is relative to the largest singular value; singular values at or
    below the cutoff count as zero.
    """
    n = system.n_unknowns
    _, sigma, vt = np.linalg.svd(_checked_dense(system, tol), full_matrices=True)
    rank = _numeric_rank(sigma, tol)
    return n - rank, [vt[i] for i in range(rank, n)]


def numeric_nullity(
    system: LinearConstraintSystem, tol: float = NULL_SPACE_TOL
) -> int:
    """Null space dimension by the ``null_space`` cutoff, without a basis."""
    sigma = np.linalg.svd(_checked_dense(system, tol), compute_uv=False)
    return system.n_unknowns - _numeric_rank(sigma, tol)


def _checked_dense(system: LinearConstraintSystem, tol: float) -> np.ndarray:
    if system.n_unknowns == 0:
        raise DegenerateSystem("system has no unknowns")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return system.to_dense()


def _numeric_rank(sigma: np.ndarray, tol: float) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    largest = sigma[0] if sigma.size else 0.0
    if largest == 0.0:
        return 0
    return int(np.sum(sigma > tol * largest))


def exact_nullity(system: LinearConstraintSystem) -> int:
    """Null space dimension by exact Gaussian elimination over the rationals.

    Coefficients are converted to exact fractions (floats convert exactly),
    so the returned rank involves no rounding at all.  Pivot rows are kept in
    reduced form to bound fill-in; all catalog constraint rows are short.
    """
    if system.n_unknowns == 0:
        raise DegenerateSystem("system has no unknowns")
    zero = Fraction(0)
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in system.rows:
        row: dict[int, Fraction] = {}
        for idx, coeff in raw:
            acc = row.get(idx, zero) + Fraction(coeff)
            if acc:
                row[idx] = acc
            else:
                row.pop(idx, None)
        while row:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                break
            factor = row.pop(hit)
            for c, v in pivots[hit].items():
                if c == hit:
                    continue
                acc = row.get(c, zero) - factor * v
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
        if not row:
            continue
        pcol = min(row)
        pval = row[pcol]
        prow = {c: v / pval for c, v in row.items()}
        for qrow in pivots.values():
            if pcol in qrow:
                f = qrow.pop(pcol)
                for c, v in prow.items():
                    if c == pcol:
                        continue
                    acc = qrow.get(c, zero) - f * v
                    if acc:
                        qrow[c] = acc
                    else:
                        qrow.pop(c, None)
        pivots[pcol] = prow
    return system.n_unknowns - len(pivots)
