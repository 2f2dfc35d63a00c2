"""Sparse linear constraint systems and their null spaces.

A system is stored once, as flat entry arrays: the row index, column and
coefficient of every entry, rows in order, plus the row count (a row may
have no entries).  Two routes read those arrays, share no step, and take a
batch of systems in one pass over them stacked block-diagonally
(``_stacked``).  The numeric route, ``numeric_nullities``, labels each
row and unknown with its block of the sparsity pattern (``_blocks``),
takes the singular values of all blocks of one shape in one stacked SVD,
and counts those above ``NULL_SPACE_TOL`` times the largest singular value
of their own system; no matrix of a whole system is made.  The exact
route, ``exact_nullities``, never rounds and raises ``ValueError`` on a
row that is not integers summing below 2**53 in absolute value: it merges
each row's repeated columns in numpy, solves the rows of one entry and
the rows ``x_u = +-x_v`` as a signed graph in numpy (not ``_blocks``),
and eliminates any other row forward, fraction-free over the integers,
on one unknown per free component.  A loop that overruns its proved
bound raises (``_rounds``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DegenerateSystem, InternalConsistencyError, SlotMismatch

NULL_SPACE_TOL = 1e-9

Entries = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class LinearConstraintSystem:
    """Homogeneous system A x = 0 stored as flat entry arrays in row order.

    ``entries`` holds the row index, column and coefficient of every stored
    entry as read-only arrays, rows ascending; ``n_rows`` counts the rows,
    since a row may have no entries.  ``from_entries``, which validates the
    arrays, is the one constructor.
    """

    n_unknowns: int
    n_rows: int
    entries: Entries

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
        row_of, cols, coeffs = self.entries
        pairs = list(zip(cols.tolist(), coeffs.tolist()))
        ends = np.cumsum(np.bincount(row_of, minlength=self.n_rows)).tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip([0, *ends], ends))


def _rounds(limit: int, what: str):
    """``range(limit)`` for a loop that breaks within it; one more round raises."""
    yield from range(limit)
    raise InternalConsistencyError(f"{what} did not settle in {limit} rounds")


def _blocks(system: LinearConstraintSystem) -> Tuple[np.ndarray, np.ndarray]:
    """Block labels of the sparsity pattern: each row's, then each unknown's.

    Two unknowns share a block when a chain of rows links them, whatever
    the coefficients, so a row whose entries cancel still joins its
    columns.  Blocks are numbered in the order of their smallest unknown;
    an unknown that no row touches is a block of its own with no rows, and
    a row with no entry belongs to no block and reads the block count.
    """
    row_of, cols, _ = system.entries
    n_rows, n = system.n_rows, system.n_unknowns
    # every unknown ends labelled by the smallest unknown of its block:
    # labels only shrink, and each round pulls every label one row further
    # (each row pulls its columns to their least label, then a pointer jump)
    label = np.arange(n)
    for _ in _rounds(n + 1, "block labels"):
        row_min = np.full(n_rows, n)
        np.minimum.at(row_min, row_of, label[cols])
        pulled = label.copy()
        np.minimum.at(pulled, cols, row_min[row_of])
        pulled = pulled[pulled]
        if (pulled == label).all():
            break
        label = pulled
    roots = label == np.arange(n)
    col_block = (np.cumsum(roots) - 1)[label]
    row_block = np.full(n_rows, np.count_nonzero(roots))
    row_block[row_of] = col_block[cols]
    return row_block, col_block


def _stacked(systems: Sequence[LinearConstraintSystem]):
    """``systems`` as one block-diagonal system, and each unknown's system.

    A lone system passes through as it is; one with no unknowns raises.
    """
    if any(s.n_unknowns == 0 for s in systems):
        raise DegenerateSystem("system has no unknowns")
    widths = [s.n_unknowns for s in systems]
    owner = np.repeat(np.arange(len(systems)), widths)
    if len(systems) == 1:
        return systems[0], owner
    sizes = [s.entries[0].size for s in systems]
    row_of, cols, coeffs = map(np.concatenate, zip(*(s.entries for s in systems)))
    for a, counts in ((row_of, [s.n_rows for s in systems]), (cols, widths)):
        a += np.repeat(np.cumsum([0] + counts[:-1]), sizes)
    n_rows = sum(s.n_rows for s in systems)
    return LinearConstraintSystem(sum(widths), n_rows, (row_of, cols, coeffs)), owner


def _block_spectra(system: LinearConstraintSystem, compute_uv: bool) -> list:
    """Singular values of every block, one stacked SVD per block shape.

    Each item is (columns (k, c), singular values (k, min(r, c)), right
    singular vectors (k, c, c) or None) for the k blocks of shape (r, c),
    shapes in the order of their first block.  The blocks are read from
    one matrix of every row by the widest block, where each entry adds in
    at its column's place in its block.  A wide block takes the full V, so
    every block gets all c of its right singular vectors; numpy gives a
    block with no rows no singular values and the identity for V.
    """
    row_block, col_block = _blocks(system)
    row_of, cols, coeffs = system.entries
    width = np.bincount(col_block)
    height = np.bincount(row_block, minlength=width.size + 1)[: width.size]
    # rows and unknowns block by block, each ascending, from their offsets
    row_order = np.argsort(row_block, kind="stable")
    col_order = np.argsort(col_block, kind="stable")
    row_start, col_start = (np.cumsum(k) - k for k in (height, width))
    place = np.empty(system.n_unknowns, dtype=np.intp)
    place[col_order] = np.arange(col_order.size) - np.repeat(col_start, width)
    narrow = np.zeros((system.n_rows, width.max()))
    np.add.at(narrow, (row_of, place[cols]), coeffs)
    shape = height * (system.n_unknowns + 1) + width
    spectra = []
    for first in np.sort(np.unique(shape, return_index=True)[1]).tolist():
        blocks = np.flatnonzero(shape == shape[first])
        r, c = int(height[first]), int(width[first])
        block_cols = col_order[col_start[blocks, None] + np.arange(c)]
        stack = narrow[row_order[row_start[blocks, None] + np.arange(r)], :c]
        svd = np.linalg.svd(stack, full_matrices=r < c, compute_uv=compute_uv)
        sigma, vt = (svd.S, svd.Vh) if compute_uv else (svd, None)
        spectra.append((block_cols, sigma, vt))
    return spectra


def _cutoffs(spectra, owner: np.ndarray, count: int):
    """Singular values laid end to end, each one's system, and the cutoffs.

    A system's cutoff is ``NULL_SPACE_TOL`` times its largest singular value.
    """
    values = np.concatenate([s.ravel() for _, s, _ in spectra])
    who = np.concatenate([np.repeat(owner[c[:, 0]], s.shape[1]) for c, s, _ in spectra])
    largest = np.zeros(count)
    np.maximum.at(largest, who, values)
    return values, who, NULL_SPACE_TOL * largest


def null_space(system: LinearConstraintSystem) -> Tuple[int, List[np.ndarray]]:
    """Dimension and orthonormal basis of the null space of the system.

    Singular values at or below ``_cutoffs`` count as zero.  Each block of
    the sparsity pattern (``_blocks``) contributes the right singular
    vectors past its own rank, embedded into vectors of full length; the
    blocks have disjoint columns, so the basis is orthonormal.
    """
    system, owner = _stacked([system])
    spectra = _block_spectra(system, compute_uv=True)
    (cut,) = _cutoffs(spectra, owner, 1)[2]
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


def numeric_nullities(systems: Sequence[LinearConstraintSystem]) -> List[int]:
    """Null space dimension of each system: one stacked ``_block_spectra``."""
    if not systems:
        return []
    stacked, owner = _stacked(systems)
    spectra = _block_spectra(stacked, compute_uv=False)
    values, who, cut = _cutoffs(spectra, owner, len(systems))
    rank = np.bincount(who[values > cut[who]], minlength=len(systems))
    return [s.n_unknowns - int(r) for s, r in zip(systems, rank)]


def exact_nullities(systems: Sequence[LinearConstraintSystem]) -> List[int]:
    """Null space dimension of each system by exact elimination, in three stages.

    The stages run once, over the systems stacked (``_stacked``).  Every
    coefficient must be an integer, and every row's absolute values must
    sum below 2**53; any other row raises ``ValueError``.

    1. ``_merged_rows`` merges each row's repeated columns exactly.
    2. Of the merged rows, those of one entry (``x_u = 0``, the loop
       ``x_u = -x_u``) or of two entries of equal absolute value
       (``x_u = x_v`` or ``x_u = -x_v``) are the edges of a signed graph,
       which ``_signed_components`` solves in numpy.  They leave one
       unknown per free component, one that is balanced (Zaslavsky,
       "Signed graphs", 1982).
    3. Every other row is written on the free components' roots, with
       their signs, and reduced forward, fraction-free over the integers:
       while its smallest column has a pivot row, ``row <- p*row - r*pivot``
       clears it (every row divided by the gcd of its entries); a row left
       nonzero becomes the pivot of its smallest column.

    A system's nullity is the number of its free components minus the
    number of its pivots, the rank of its stage-3 rows, and no step
    rounds.  Every row of a standard fiber's system has at most two
    entries, all +-1, so stage 3 gets no row there.
    """
    if not systems:
        return []
    system, owner = _stacked(systems)
    row, col, value = _merged_rows(system)
    # each nonempty row by its first and last entry: one entry, or two of
    # equal absolute value, make an edge from the first column to the last,
    # and stage 3 takes every other row
    first = np.flatnonzero(np.diff(row, prepend=-1))
    last = np.flatnonzero(np.diff(row, append=-1))
    edge = (last - first < 2) & (np.abs(value[first]) == np.abs(value[last]))
    root, sign, free = _signed_components(
        system.n_unknowns,
        col[first[edge]],
        col[last[edge]],
        (value[first[edge]] > 0) == (value[last[edge]] > 0),
    )
    nullity = np.bincount(owner[free], minlength=len(systems))
    rest = np.repeat(~edge, last - first + 1)
    general: Dict[int, List[Tuple[int, int]]] = {}
    for r, c, v in zip(*(a[rest].tolist() for a in (row, col, value))):
        general.setdefault(r, []).append((c, v))
    root, sign, free = root.tolist(), sign.tolist(), free.tolist()
    # no row links two systems, so each pivot's column is its own system's
    pivots: Dict[int, Dict[int, int]] = {}
    for entries in general.values():
        on_roots: Dict[int, int] = {}
        for c, v in entries:
            if free[root[c]]:
                on_roots[root[c]] = on_roots.get(root[c], 0) + sign[c] * v
        new = _primitive({c: v for c, v in on_roots.items() if v})
        # no pivot holds a column below its own: each step raises min(new)
        for _ in _rounds(len(pivots) + 1, "stage-3 elimination"):
            if not new or min(new) not in pivots:
                break
            new = _eliminate(new, pivots[min(new)], min(new))
        if new:
            pivots[min(new)] = new
    for c in pivots:
        nullity[owner[c]] -= 1
    return nullity.tolist()


def exact_nullity(system: LinearConstraintSystem) -> int:
    """``exact_nullities`` of one system."""
    return exact_nullities([system])[0]


def _merged_rows(system: LinearConstraintSystem) -> Tuple[np.ndarray, ...]:
    """Stage 1: every row with its repeated columns merged, zeros dropped.

    Every row is merged in numpy, in floats, so it must hold integers
    whose absolute values sum below 2**53, or ``ValueError`` is raised:
    every partial sum is then an integer below 2**53, which a float holds
    exactly.  Returns the row, column and integer value of every merged
    entry, ordered by row and then column.
    """
    row_of, cols, coeffs = system.entries
    # a float sum of nonnegative integers reaches 2**53 exactly when the
    # true sum does, so the guard cannot round its way through
    size = np.bincount(row_of, weights=np.abs(coeffs), minlength=system.n_rows)
    bad = ~(size < 2.0**53)
    bad[row_of[coeffs != np.round(coeffs)]] = True
    if bad.any():
        raise ValueError(
            f"row {np.flatnonzero(bad)[0]}: the exact route takes integer "
            "coefficients whose absolute values sum below 2**53"
        )
    key, where = np.unique(row_of * system.n_unknowns + cols, return_inverse=True)
    value = np.bincount(where, weights=coeffs, minlength=key.size)
    nonzero = value != 0
    row, col = np.divmod(key[nonzero], system.n_unknowns)
    return row, col, value[nonzero].astype(np.int64)


def _signed_components(
    n: int, u: np.ndarray, v: np.ndarray, same: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 2: the components of a signed graph on n unknowns.

    Edge k says ``x_u = -x_v`` where ``same[k]`` and ``x_u = x_v``
    elsewhere; a loop u = v with ``same`` says ``x_u = -x_u``, so
    ``x_u = 0``.  In the doubled graph, node u stands for +x_u and node
    n + u for -x_u, and edge k joins +x_u to the node of the value it
    equals (+x_v, or -x_v where ``same[k]``) and -x_u to the other.  A
    component is free exactly when it is balanced: +x_u and -x_u lie apart.

    Returns, per unknown, the root of its component (its smallest
    unknown), its sign relative to the root, and, at each root, whether
    the component is free.
    """
    a = np.concatenate([u, u + n])
    b = np.concatenate([v + n * same, v + n * ~same])
    # every node ends labelled by the smallest node of its component: each
    # round hooks the larger label of every edge onto the smaller one (the
    # labels are roots, so an edge with equal labels changes nothing), then
    # jumps pointers until every label points at itself: a hook leaves one
    # root fewer and a jump shortens the longest chain, under 2n rounds each
    label = np.arange(2 * n)
    for _ in _rounds(2 * n + 1, "signed components"):
        la, lb = label[a], label[b]
        if (la == lb).all():
            break
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        for _ in _rounds(2 * n, "pointer jumps"):
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    plus, minus = label[:n], label[n:]
    # +x_r of the smallest unknown r labels its own half of the doubled
    # component; the other half holds only larger unknowns
    root = np.minimum(plus, minus)
    sign = np.where(plus == root, 1, -1)
    free = (plus != minus) & (root == np.arange(n))
    return root, sign, free


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
