"""Sparse linear constraint systems and their null spaces.

A system is stored once, as flat entry arrays: the row index, column and
coefficient of every entry, rows in order, plus the row count (a row may
have no entries).  Both routes read those arrays.

Two routes give a system's null space dimension, and they share no step.
The numeric route splits the system into the independent blocks of its
sparsity pattern (``_blocks``), takes the singular values of every block
(blocks of equal shape in one stacked SVD), and counts those above
``_cutoff``, ``NULL_SPACE_TOL`` times the largest singular value of the
whole system; the blocks of a block-diagonal matrix have exactly its
singular values, so the split changes the cost and not the count.  The
exact route, ``exact_nullity``, never rounds: it merges each row's
repeated columns exactly, solves the rows of one entry and the rows
``x_u = +-x_v`` as a signed graph in numpy (its own label propagation over
the doubled graph, not ``_blocks``), and eliminates any other row forward,
fraction-free over the integers, on one unknown per free component of
that graph.  ``algebra`` gives both routes the whole system at every n.
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


def _require_unknowns(system: LinearConstraintSystem) -> None:
    """Every rank route refuses a system with no unknowns."""
    if system.n_unknowns == 0:
        raise DegenerateSystem("system has no unknowns")


def _block_spectra(
    system: LinearConstraintSystem, compute_uv: bool
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Singular values of every block, one stacked SVD per block shape.

    Each item is (columns (k, c), singular values (k, min(r, c)), right
    singular vectors (k, c, c) or None) for the k blocks of shape (r, c).
    A wide block takes the full V, so every block gets all c of its right
    singular vectors; a block with no rows has none of its singular values
    and the identity for V.  A system with no unknowns raises.
    """
    _require_unknowns(system)
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


def _cutoff(spectra) -> float:
    """``NULL_SPACE_TOL`` times the system's largest singular value, or 0."""
    largest = max((float(s.max()) for _, s, _ in spectra if s.size), default=0.0)
    return NULL_SPACE_TOL * largest


def null_space(system: LinearConstraintSystem) -> Tuple[int, List[np.ndarray]]:
    """Dimension and orthonormal basis of the null space of the system.

    Singular values at or below ``_cutoff`` count as zero.  Each block of
    the sparsity pattern (``_blocks``) contributes the right singular
    vectors past its own rank, embedded into vectors of full length; the
    blocks have disjoint columns, so the basis is orthonormal.
    """
    spectra = _block_spectra(system, compute_uv=True)
    cut = _cutoff(spectra)
    basis: List[np.ndarray] = []
    for cols, sigma, vt in spectra:
        k, c = cols.shape
        # a block's SVD lists its values in descending order, so the ones
        # above the cutoff come first and the rest of V spans its null space
        null = np.arange(c) >= (sigma > cut).sum(axis=1)[:, None]
        vectors = np.zeros((int(null.sum()), system.n_unknowns))
        targets = np.broadcast_to(cols[:, None, :], (k, c, c))[null]
        vectors[np.arange(len(vectors))[:, None], targets] = vt[null]
        basis.extend(vectors)
    return len(basis), basis


def numeric_nullity(system: LinearConstraintSystem) -> int:
    """Null space dimension by the ``null_space`` cutoff, without a basis."""
    spectra = _block_spectra(system, compute_uv=False)
    cut = _cutoff(spectra)
    return system.n_unknowns - sum(int((s > cut).sum()) for _, s, _ in spectra)


def exact_nullity(system: LinearConstraintSystem) -> int:
    """Null space dimension by exact elimination, in three stages.

    1. ``_merged_rows`` merges each row's repeated columns exactly.
    2. Of the rows it merged in numpy, those of one entry (``x_u = 0``)
       or of two entries of equal absolute value (``x_u = x_v`` or
       ``x_u = -x_v``) are the incidence matrix of a signed graph, which
       ``_signed_components`` solves in numpy.  They leave one unknown per
       free component: one that is balanced (Zaslavsky, "Signed graphs",
       1982) and that no ``x_u = 0`` row touches.
    3. Every other row is written on the free components' roots, with
       their signs, and reduced forward, fraction-free over the integers:
       while its smallest column has a pivot row, ``row <- p*row - r*pivot``
       clears it (every row divided by the gcd of its entries); a row left
       nonzero becomes the pivot of its smallest column.

    The nullity is the number of free components minus the number of
    pivots, the rank of the stage-3 rows, and no step rounds.  Every row of a standard fiber's
    system has at most two entries, all +-1, so stage 3 gets no row there.
    """
    _require_unknowns(system)
    row, col, value, general = _merged_rows(system)
    count = np.bincount(row, minlength=system.n_rows)
    first = np.cumsum(count) - count
    pair = first[count == 2]
    equal = np.abs(value[pair]) == np.abs(value[pair + 1])
    edge = pair[equal]
    root, sign, free = _signed_components(
        system.n_unknowns,
        col[first[count == 1]],
        col[edge],
        col[edge + 1],
        (value[edge] > 0) == (value[edge + 1] > 0),
    )
    # stage 3 takes the rows of three or more entries, or of two unequal ones
    rest = count > 2
    rest[row[pair[~equal]]] = True
    rest = rest[row]
    for r, c, v in zip(*(a[rest].tolist() for a in (row, col, value))):
        general.setdefault(r, []).append((c, v))
    root, sign, free = root.tolist(), sign.tolist(), free.tolist()
    pivots: Dict[int, Dict[int, int]] = {}
    for entries in general.values():
        on_roots: Dict[int, int] = {}
        for c, v in entries:
            if free[root[c]]:
                on_roots[root[c]] = on_roots.get(root[c], 0) + sign[c] * v
        new = _primitive({c: v for c, v in on_roots.items() if v})
        # a pivot holds no column below its own, so each step raises min(new)
        while new and min(new) in pivots:
            new = _eliminate(new, pivots[min(new)], min(new))
        if new:
            pivots[min(new)] = new
    return sum(free) - len(pivots)


def _merged_rows(
    system: LinearConstraintSystem,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, List[Tuple[int, int]]]]:
    """Stage 1: every row with its repeated columns merged, zeros dropped.

    A row of integer coefficients whose absolute values sum below 2**53 is
    merged in numpy, in floats: every partial sum is then an integer below
    2**53, which a float holds exactly.  Every other row is merged by
    ``_integer_row`` in Python integers, to its primitive multiple, and
    left for stage 3.

    Returns the row, column and integer value of every merged entry of the
    numpy rows, ordered by row and then column, and the other rows as
    {row: [(column, value)]}.
    """
    row_of, cols, coeffs = system.entries
    n = system.n_unknowns
    # a float sum of nonnegative integers reaches 2**53 exactly when the
    # true sum does, so the guard cannot round its way through
    size = np.bincount(row_of, weights=np.abs(coeffs), minlength=system.n_rows)
    slow = ~(size < 2.0**53)
    slow[row_of[coeffs != np.round(coeffs)]] = True
    wide: Dict[int, List[Tuple[int, int]]] = {}
    if slow.any():
        bounds = _row_bounds(system)
        col_list, coeff_list = cols.tolist(), coeffs.tolist()
        for r in np.flatnonzero(slow).tolist():
            start, end = bounds[r]
            merged = _integer_row(col_list[start:end], coeff_list[start:end])
            wide[r] = list(merged.items())
        keep = ~slow[row_of]
        row_of, cols, coeffs = row_of[keep], cols[keep], coeffs[keep]
    key, where = np.unique(row_of * n + cols, return_inverse=True)
    value = np.bincount(where, weights=coeffs, minlength=key.size)
    nonzero = value != 0
    row, col = np.divmod(key[nonzero], n)
    return row, col, value[nonzero].astype(np.int64), wide


def _signed_components(
    n: int, kills: np.ndarray, u: np.ndarray, v: np.ndarray, same: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 2: the components of a signed graph on n unknowns.

    Edge k says ``x_u = -x_v`` where ``same[k]`` and ``x_u = x_v``
    elsewhere, and ``x_u = 0`` for every u in ``kills``.  In the doubled
    graph, node u stands for +x_u and node n + u for -x_u, and edge k
    joins +x_u to the node of the value it equals (+x_v, or -x_v where
    ``same[k]``) and -x_u to the other.  A component is balanced when +x_u
    and -x_u lie apart, and free when it is balanced and has no unknown in
    ``kills``.

    Returns, per unknown, the root of its component (its smallest
    unknown), its sign relative to the root, and, at each root, whether
    the component is free.
    """
    a = np.concatenate([u, u + n])
    b = np.concatenate([v + n * same, v + n * ~same])
    # every node ends labelled by the smallest node of its component: each
    # round hooks the larger label of every edge onto the smaller one (the
    # labels are roots, so an edge with equal labels changes nothing), then
    # jumps pointers until every label points at itself
    label = np.arange(2 * n)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            break
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        jumped = label[label]
        while (jumped != label).any():
            label, jumped = jumped, jumped[jumped]
    plus, minus = label[:n], label[n:]
    # +x_r of the smallest unknown r labels its own half of the doubled
    # component; the other half holds only larger unknowns
    root = np.minimum(plus, minus)
    sign = np.where(plus == root, 1, -1)
    free = (plus != minus) & (root == np.arange(n))
    free[root[kills]] = False
    return root, sign, free


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
        out[c] = out.get(c, 0) - r * v
    return _primitive({c: v for c, v in out.items() if v})


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row
