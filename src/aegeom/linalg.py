"""Sparse linear constraint systems and their null spaces.

A system is stored once, as flat entry arrays: the row index, column and
coefficient of every entry, rows in order, plus the row count (a row may
have no entries).  Both routes read those arrays.

Two routes give a system's null space dimension, and they share no step.
The numeric route splits the system into the independent blocks of its
sparsity pattern (``_blocks``), takes the singular values of every block
(blocks of equal shape in one stacked SVD), and counts those above a
cutoff relative to the largest singular value of the whole system; the
blocks of a block-diagonal matrix have exactly its singular values, so
the split changes the cost and not the count.  The exact route,
``exact_nullity``, eliminates the whole unsplit system by fraction-free
Gaussian elimination over the integers, which never rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DegenerateSystem, SlotMismatch

NULL_SPACE_TOL = 1e-9

Entries = Tuple[np.ndarray, np.ndarray, np.ndarray]
Block = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class LinearConstraintSystem:
    """Homogeneous system A x = 0 stored as flat entry arrays in row order.

    ``entries`` holds the row index, column and coefficient of every stored
    entry as read-only arrays, rows ascending; ``n_rows`` counts the rows,
    since a row may have no entries.  Build a system with ``from_entries``
    (or ``from_rows``), which validates the arrays.
    """

    n_unknowns: int
    n_rows: int
    entries: Entries

    @staticmethod
    def from_rows(
        n_unknowns: int, rows: Iterable[Sequence[Tuple[int, float]]]
    ) -> "LinearConstraintSystem":
        rows = [list(row) for row in rows]
        return LinearConstraintSystem.from_entries(
            n_unknowns,
            [len(row) for row in rows],
            [idx for row in rows for idx, _ in row],
            [coeff for row in rows for _, coeff in row],
        )

    @staticmethod
    def from_entries(
        n_unknowns: int, lengths: np.ndarray, cols: np.ndarray, coeffs: np.ndarray
    ) -> "LinearConstraintSystem":
        """System from flat entry arrays in row order.

        Row r holds the next ``lengths[r]`` entries of ``cols`` and
        ``coeffs``; read-only copies are kept as the system's ``entries``.
        """
        lengths = np.asarray(lengths, dtype=np.intp)
        cols = np.array(cols, dtype=np.intp)
        coeffs = np.array(coeffs, dtype=float)
        if cols.shape != coeffs.shape or int(lengths.sum()) != cols.size:
            raise ValueError("row lengths, columns and coefficients disagree")
        bad = (cols < 0) | (cols >= n_unknowns)
        if bad.any():
            raise SlotMismatch(
                f"column {cols[bad][0]} out of range for {n_unknowns} unknowns"
            )
        row_of = np.repeat(np.arange(lengths.size), lengths)
        for a in (row_of, cols, coeffs):
            a.setflags(write=False)
        return LinearConstraintSystem(n_unknowns, lengths.size, (row_of, cols, coeffs))

    @property
    def rows(self) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
        """Each row as (column, coefficient) pairs, rebuilt from ``entries``.

        A view for readers outside the package; no rank route reads it.
        """
        _, cols, coeffs = self.entries
        pairs = list(zip(cols.tolist(), coeffs.tolist()))
        return tuple(tuple(pairs[a:b]) for a, b in _row_bounds(self))

    def to_dense(self) -> np.ndarray:
        """Dense coefficient matrix; repeated columns in a row add up."""
        row_of, cols, coeffs = self.entries
        dense = np.zeros((self.n_rows, self.n_unknowns))
        np.add.at(dense, (row_of, cols), coeffs)
        return dense


def _row_bounds(system: LinearConstraintSystem) -> List[Tuple[int, int]]:
    """Start and end of every row within the entry arrays."""
    ends = np.cumsum(np.bincount(system.entries[0], minlength=system.n_rows))
    return list(zip([0] + ends[:-1].tolist(), ends.tolist()))


def _blocks(system: LinearConstraintSystem) -> List[Block]:
    """Independent blocks of the sparsity pattern, as (rows, columns) arrays.

    Two unknowns share a block when a chain of rows links them, whatever
    the coefficients, so a row whose entries cancel still joins its
    columns.  A row with no entry belongs to no block; an unknown that no
    row touches is a block of its own with no rows.  Indices ascend inside
    a block, and blocks come in the order of their smallest unknown.
    """
    row_of, cols, _ = system.entries
    n_rows, n = system.n_rows, system.n_unknowns
    # every unknown ends labelled by the smallest unknown of its block:
    # labels only shrink, each row pulls its columns to their least label,
    # and a pointer jump per round shortens the chains
    label = np.arange(n)
    while cols.size:
        row_min = np.full(n_rows, n)
        np.minimum.at(row_min, row_of, label[cols])
        pulled = label.copy()
        np.minimum.at(pulled, cols, row_min[row_of])
        pulled = pulled[pulled]
        if (pulled == label).all():
            break
        label = pulled
    roots = np.flatnonzero(label == np.arange(n))
    row_label = np.full(n_rows, n)
    row_label[row_of] = label[cols]
    col_order = np.argsort(label, kind="stable")
    row_order = np.argsort(row_label, kind="stable")
    bounds = []
    for order, labels in ((row_order, row_label), (col_order, label)):
        ordered = labels[order]
        bounds += [
            np.searchsorted(ordered, roots).tolist(),
            np.searchsorted(ordered, roots, side="right").tolist(),
        ]
    return [
        (row_order[r0:r1], col_order[c0:c1]) for r0, r1, c0, c1 in zip(*bounds)
    ]


def _block_spectra(
    system: LinearConstraintSystem, compute_uv: bool
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Singular values of every block, one stacked SVD per block shape.

    Each item is (columns (k, c), singular values (k, min(r, c)), right
    singular vectors (k, c, c) or None) for the k blocks of shape (r, c).
    A wide block takes the full V, so every block gets all c of its right
    singular vectors; a block with no rows has none of its singular values
    and the identity for V.
    """
    dense = system.to_dense()
    by_shape: Dict[Tuple[int, int], List[Block]] = {}
    for rows, cols in _blocks(system):
        by_shape.setdefault((rows.size, cols.size), []).append((rows, cols))
    spectra = []
    for (r, c), blocks in by_shape.items():
        cols = np.array([b[1] for b in blocks], dtype=np.intp)
        vt = None
        if r == 0:
            sigma = np.zeros((len(blocks), 0))
            if compute_uv:
                vt = np.broadcast_to(np.eye(c), (len(blocks), c, c))
        else:
            rows = np.array([b[0] for b in blocks], dtype=np.intp)
            stack = dense[rows[:, :, None], cols[:, None, :]]
            if compute_uv:
                _, sigma, vt = np.linalg.svd(stack, full_matrices=r < c)
            else:
                sigma = np.linalg.svd(stack, compute_uv=False)
        spectra.append((cols, sigma, vt))
    return spectra


def _descending(spectra) -> Tuple[np.ndarray, np.ndarray]:
    """Every block's singular values in one array, and its descending order."""
    flat = np.concatenate([s.ravel() for _, s, _ in spectra] + [np.zeros(0)])
    return flat, np.argsort(-flat, kind="stable")


def null_space(
    system: LinearConstraintSystem, tol: float = NULL_SPACE_TOL
) -> Tuple[int, List[np.ndarray]]:
    """Dimension and orthonormal basis of the null space of the system.

    ``tol`` is relative to the largest singular value of the whole system;
    singular values at or below the cutoff count as zero.  Each block of
    the sparsity pattern (``_blocks``) contributes the right singular
    vectors past its own rank, embedded into vectors of full length; the
    blocks have disjoint columns, so the basis is orthonormal.
    """
    _check_args(system, tol)
    spectra = _block_spectra(system, compute_uv=True)
    flat, order = _descending(spectra)
    # the cutoff keeps the largest values; a block's rank is how many of
    # its own values it keeps, and those come first in the block's SVD
    above = np.zeros(flat.size, dtype=bool)
    above[order[: _numeric_rank(flat[order], tol)]] = True
    basis: List[np.ndarray] = []
    offset = 0
    for cols, sigma, vt in spectra:
        k, c = cols.shape
        ranks = above[offset : offset + sigma.size].reshape(sigma.shape).sum(axis=1)
        offset += sigma.size
        null = np.arange(c) >= ranks[:, None]
        vectors = np.zeros((int(null.sum()), system.n_unknowns))
        targets = np.broadcast_to(cols[:, None, :], (k, c, c))[null]
        vectors[np.arange(len(vectors))[:, None], targets] = vt[null]
        basis.extend(vectors)
    return len(basis), basis


def numeric_nullity(
    system: LinearConstraintSystem, tol: float = NULL_SPACE_TOL
) -> int:
    """Null space dimension by the ``null_space`` cutoff, without a basis."""
    _check_args(system, tol)
    flat, order = _descending(_block_spectra(system, compute_uv=False))
    return system.n_unknowns - _numeric_rank(flat[order], tol)


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
    _, cols, coeffs = system.entries
    cols, coeffs = cols.tolist(), coeffs.tolist()
    pivots: Dict[int, Dict[int, int]] = {}
    for start, end in _row_bounds(system):
        row = _integer_row(cols[start:end], coeffs[start:end])
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


def _integer_row(cols: List[int], coeffs: List[float]) -> Dict[int, int]:
    """Primitive integer multiple of one sparse row, zeros dropped."""
    ratios = [coeff.as_integer_ratio() for coeff in coeffs]
    scale = math.lcm(*(den for _, den in ratios))
    row: Dict[int, int] = {}
    for col, (num, den) in zip(cols, ratios):
        row[col] = row.get(col, 0) + num * (scale // den)
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
