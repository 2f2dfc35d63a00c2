"""Null spaces against hand-rolled elimination oracles."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aegeom.algebra import (
    BASE,
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    _polarized_rows,
    _system,
    alternating_definitions_coincide,
    build_constraints,
    dimension_table,
    standard_fibers,
)
from aegeom.errors import DegenerateSystem, InternalConsistencyError, SlotMismatch
from aegeom import linalg
from aegeom.linalg import (
    LinearConstraintSystem,
    exact_nullities,
    exact_nullity,
    null_space,
    numeric_nullities,
)
from aegeom.catalog import catalog, standard_names
from aegeom.classify import _theorems_for, classify
from aegeom.manifold import KINDS, SamplePlan
from support import dense, dense_nullity, numeric_nullity, system_from_rows


def elimination_rank(a, tol=1e-9):
    """Row-echelon rank with partial pivoting, independent of numpy.linalg."""
    m = [list(map(float, row)) for row in np.atleast_2d(a)]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        pivot = max(range(rank, rows), key=lambda r: abs(m[r][col]), default=None)
        if pivot is None or abs(m[pivot][col]) <= tol:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rows):
            if r == rank or m[r][col] == 0.0:
                continue
            f = m[r][col] / pv
            for c in range(col, cols):
                m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def fraction_nullity(system):
    """Null space dimension by Gaussian elimination over ``Fraction``.

    The reference for ``exact_nullity``: the same reduced pivot rows, but
    in rational arithmetic, with each pivot row scaled to a leading one.
    """
    zero = Fraction(0)
    pivots = {}
    for raw in system.rows:
        row = {}
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


def system_from_dense(a):
    rows = []
    for row in np.atleast_2d(a):
        rows.append([(j, v) for j, v in enumerate(row) if v != 0.0])
    return system_from_rows(np.atleast_2d(a).shape[1], rows)


def test_identity_system_has_trivial_null_space():
    sys3 = system_from_dense(np.eye(3))
    dim, basis = null_space(sys3)
    assert dim == 0 and basis == []
    assert exact_nullity(sys3) == 0


def test_zero_rows_leave_everything_free():
    sys0 = system_from_dense(np.zeros((2, 4)))
    dim, basis = null_space(sys0)
    assert dim == 4
    b = np.stack(basis)
    assert np.allclose(b @ b.T, np.eye(4), atol=1e-12)
    assert exact_nullity(sys0) == 4


def test_empty_row_list_means_full_null_space():
    sysn = system_from_rows(3, [])
    dim, basis = null_space(sysn)
    assert dim == 3 and len(basis) == 3


def test_random_rank_three_system():
    rng = np.random.default_rng(11)
    core = rng.integers(-4, 5, size=(3, 7)).astype(float)
    mix = rng.integers(-2, 3, size=(2, 3)).astype(float)
    dense = np.vstack([core, mix @ core])
    assert elimination_rank(dense) == 3
    sys = system_from_dense(dense)
    dim, basis = null_space(sys)
    assert dim == 7 - elimination_rank(dense) == 4
    assert exact_nullity(sys) == 4
    for v in basis:
        assert np.max(np.abs(dense @ v)) < 1e-9
    b = np.stack(basis)
    assert np.allclose(b @ b.T, np.eye(4), atol=1e-12)


def test_exact_route_sees_through_rounded_dependence():
    # rows of size 2**40 and integer combinations of them, each moved by 1
    # in one column, are dependent only up to that 1: the svd route counts
    # it below its relative tolerance, the exact route counts the true rank
    rng = np.random.default_rng(11)
    core = rng.integers(-4, 5, size=(3, 7)) * 2**40
    mix = rng.integers(-2, 3, size=(2, 3))
    moved = mix @ core + np.eye(2, 7, 3, dtype=np.int64)
    sys = system_from_dense(np.vstack([core, moved]).astype(float))
    dim, _ = null_space(sys)
    assert dim == 4
    assert exact_nullity(sys) == fraction_nullity(sys) == 2


def test_dimension_survives_row_permutation_and_scaling():
    rng = np.random.default_rng(5)
    dense = np.vstack([rng.standard_normal((4, 6)), rng.standard_normal((3, 4)) @ rng.standard_normal((4, 6))])
    base_dim, _ = null_space(system_from_dense(dense))
    for trial in range(5):
        perm = rng.permutation(dense.shape[0])
        scales = rng.uniform(0.5, 3.0, dense.shape[0]) * rng.choice([-1.0, 1.0], dense.shape[0])
        shuffled = dense[perm] * scales[:, None]
        dim, _ = null_space(system_from_dense(shuffled))
        assert dim == base_dim


def test_repeated_index_entries_accumulate():
    # same column twice in one row: coefficients add up
    sys = system_from_rows(2, [[(0, 1.0), (0, 1.0), (1, -2.0)]])
    assert np.allclose(dense(sys), [[2.0, -2.0]])
    dim, basis = null_space(sys)
    assert dim == 1
    v = basis[0]
    assert abs(v[0] - v[1]) < 1e-12


def test_exact_nullity_matches_svd_on_random_integer_systems():
    rng = np.random.default_rng(23)
    for trial in range(20):
        dense = rng.integers(-3, 4, size=(rng.integers(1, 9), rng.integers(1, 7)))
        sys = system_from_dense(dense.astype(float))
        dim, _ = null_space(sys)
        assert exact_nullity(sys) == dim == dense.shape[1] - elimination_rank(dense)


def test_system_rejects_out_of_range_columns():
    with pytest.raises(SlotMismatch):
        LinearConstraintSystem.from_entries(2, [1], [2], [1.0])
    with pytest.raises(SlotMismatch):
        LinearConstraintSystem.from_entries(2, [1], [-1], [1.0])
    with pytest.raises(ValueError, match="columns and coefficients disagree"):
        LinearConstraintSystem.from_entries(3, [2], [0], [1.0])


def test_zero_unknowns_is_degenerate():
    sys = LinearConstraintSystem.from_entries(0, [], [], [])
    with pytest.raises(DegenerateSystem):
        null_space(sys)
    with pytest.raises(DegenerateSystem):
        exact_nullity(sys)
    # one such system spoils its batch on both routes
    batch = [system_from_rows(2, [[(0, 1.0)]]), sys]
    for route in (numeric_nullities, exact_nullities):
        with pytest.raises(DegenerateSystem):
            route(batch)
        assert route([]) == []


def test_numeric_nullity_counts_like_null_space():
    rng = np.random.default_rng(11)
    core = rng.standard_normal((3, 7))
    systems = [
        system_from_dense(np.eye(3)),
        system_from_dense(np.zeros((2, 4))),
        system_from_rows(3, []),
        system_from_dense(np.vstack([core, rng.standard_normal((2, 3)) @ core])),
    ]
    for sys in systems:
        assert numeric_nullity(sys) == null_space(sys)[0]
    with pytest.raises(DegenerateSystem):
        numeric_nullity(system_from_rows(0, []))


def test_exact_nullity_matches_the_fraction_oracle_on_random_systems():
    rng = np.random.default_rng(31)
    # small integers, then integers of sizes from 1 to 2**30
    values = [1.0, -3.0, 7.0, 1000.0, -(2.0**20), 2.0**30]
    for trial in range(300):
        shape = (rng.integers(1, 9), rng.integers(1, 9))
        if trial % 2:
            dense = rng.integers(-3, 4, size=shape).astype(float)
        else:
            dense = rng.choice(values + [0.0] * 4, size=shape)
        # dependent rows make the rank smaller than the row count
        extra = rng.integers(-2, 3, size=(rng.integers(0, 4), shape[0])) @ dense
        sys = system_from_dense(np.vstack([dense, extra]))
        assert exact_nullity(sys) == fraction_nullity(sys), trial


def test_exact_nullity_matches_the_fraction_oracle_on_repeated_columns():
    rows = [
        # 1 + 1 and 4 make twice the next row, so the rank counts only if
        # the repeated column merges before the rows are compared
        [(0, 1.0), (0, 1.0), (1, 4.0)],
        [(0, 1.0), (1, 2.0)],
        [(1, 1.0), (2, 3.0), (1, 2.0), (2, -3.0)],
        [(2, 5.0), (3, 1.0), (2, -5.0)],
        [(3, 1.0), (3, -1.0)],
        # large entries that cancel exactly, and a row left for stage 3
        [(1, 2.0**51), (0, 1.0), (1, -(2.0**51))],
        [(0, 1.0), (0, 2.0), (1, -3.0), (3, 1000.0)],
    ]
    for k in range(len(rows) + 1):
        sys = system_from_rows(4, rows[:k])
        assert exact_nullity(sys) == fraction_nullity(sys), k
    assert exact_nullity(system_from_rows(4, rows[:2])) == 3


def test_exact_nullity_matches_the_fraction_oracle_on_the_model_fibers():
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            fiber = ModelFiber.standard(kind, n)
            systems = [build_constraints(fiber, query) for query in SubspaceQuery]
            polarized = _polarized_rows(fiber.dim)
            systems.append(_system(fiber.dim, *map(fiber.rows, BASE), polarized))
            for sys in systems:
                assert exact_nullity(sys) == fraction_nullity(sys), (kind.label, n)


# coefficients of the signed-graph pieces, up to 2**51 so that a link row
# c x_u +- c x_v sums below 2**53
LINK_SIZES = [1.0, 3.0, 2.0, 7.0, 2.0**30, 2.0**51]


@st.composite
def signed_graph_systems(draw):
    """Systems built to reach every stage of ``exact_nullity``.

    Rows come in pieces, shuffled: identification rows c x_u +- c x_v of
    both signs; closed cycles of them, balanced or not; single-entry rows;
    repeated columns that cancel or merge to +-2 or into an identification
    row; the row 2**51 x_u + x_0 - 2**51 x_0, whose large entries cancel
    when u = 0; empty rows; and general rows of three or four random
    entries, left for stage 3.  Every coefficient is an integer.
    """
    n = draw(st.integers(2, 8))
    unknown = st.integers(0, n - 1)
    size = st.sampled_from(LINK_SIZES)
    sign = st.sampled_from([1.0, -1.0])
    rows = []
    for piece in draw(st.lists(st.integers(0, 7), max_size=12)):
        if piece == 0:
            u, v = draw(st.lists(unknown, min_size=2, max_size=2, unique=True))
            c = draw(size)
            rows.append([(u, c), (v, draw(sign) * c)])
        elif piece == 1:
            cycle = draw(st.lists(unknown, min_size=2, max_size=n, unique=True))
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                rows.append([(u, 1.0), (v, draw(sign))])
        elif piece == 2:
            rows.append([(draw(unknown), draw(sign) * draw(size))])
        elif piece == 3:
            u, v = draw(st.lists(unknown, min_size=2, max_size=2, unique=True))
            a, b = draw(sign), draw(sign)
            # a + b is 0 or +-2; the v entries merge to +-2 as well
            rows.append([(u, a), (v, 1.0), (u, b), (v, draw(sign))])
        elif piece == 4:
            rows.append([(draw(unknown), 2.0**51), (0, 1.0), (0, -(2.0**51))])
        elif piece == 5:
            rows.append([])
        else:
            cols = draw(st.lists(unknown, min_size=3, max_size=4))
            values = st.sampled_from([1.0, -2.0, 3.0, 5.0, -7.0, 2.0**30])
            rows.append([(c, draw(values)) for c in cols])
    return system_from_rows(n, draw(st.permutations(rows)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(signed_graph_systems())
def test_exact_nullity_matches_the_fraction_oracle_on_signed_graphs(system):
    assert exact_nullity(system) == fraction_nullity(system)


def test_signed_graph_stages_on_small_systems():
    # x0 = x1 = x2 = x0: one balanced component, a free unknown
    balanced = [[(0, 1.0), (1, -1.0)], [(1, 1.0), (2, -1.0)], [(2, 1.0), (0, -1.0)]]
    # x0 = x1 = x2 = -x0: an unbalanced cycle, no free unknown, no kill
    unbalanced = balanced[:2] + [[(2, 1.0), (0, 1.0)]]
    # x0 = -x1, then x1 = 0 kills the component
    killed = [[(0, 2.0), (1, 2.0)], [(1, 3.0)]]
    # a float merge of 2**53 + 1 - 2**53 gives 0 and would miss the kill
    rounding = [[(0, 2.0**53), (0, 1.0), (0, -(2.0**53))]]
    # repeated columns: a cancelling row, and 2 x0 - 2 x1 after merging
    repeated = [[(0, 1.0), (0, -1.0)], [(0, 1.0), (1, -1.0), (0, 1.0), (1, -1.0)]]
    # x0 = x1 and x0 + x1 + x2 = 0: stage 3 sees 2 t + x2 = 0
    general = [[(0, 1.0), (1, -1.0)], [(0, 1.0), (1, 1.0), (2, 1.0)]]
    cases = [
        (balanced, 1),
        (unbalanced, 0),
        (killed, 1),
        (repeated, 2),
        (general, 1),
    ]
    for rows, nullity in cases:
        system = system_from_rows(3, rows)
        assert exact_nullity(system) == fraction_nullity(system) == nullity, rows
    with pytest.raises(ValueError, match="below 2\\*\\*53"):
        exact_nullity(system_from_rows(3, rounding))


def test_the_exact_route_takes_integer_rows_summing_below_2_53():
    # the two rows force x0 = x1 = 0, but 2**53 + 1 is stored as the float
    # 2**53, which makes them equal and would read nullity 1; a coefficient
    # of 0.5 is not an integer
    for rows in (
        [[(0, 2**53 + 1), (1, 1)], [(0, 2**53), (1, 1)]],
        [[(0, 1.0)], [(1, 0.5)]],
    ):
        system = system_from_rows(2, rows)
        with pytest.raises(ValueError, match="exact route takes integer"):
            exact_nullity(system)
        with pytest.raises(ValueError, match="exact route takes integer"):
            exact_nullities([system_from_rows(2, [[(0, 1.0)]]), system])
    # just below the bound the merge is exact
    edge = system_from_rows(2, [[(0, 2.0**52), (1, 2.0**52 - 1)]])
    assert exact_nullity(edge) == fraction_nullity(edge) == 1


def test_the_dimension_table_needs_no_general_elimination(monkeypatch):
    # every row of a standard fiber's system is a signed-graph row, so
    # neither the table, its coincide check nor a classify note reaches
    # stage 3
    def unreached(*args):
        raise AssertionError("a standard fiber reached integer elimination")

    monkeypatch.setattr(linalg, "_eliminate", unreached)
    monkeypatch.setattr(linalg, "_primitive", unreached)
    fibers = standard_fibers()
    table = dimension_table(fibers)
    assert table["hermitian"][3]["alternating_first_two"] == 2
    alternating = [table[f.kind.label][f.n]["alternating_first_two"] for f in fibers]
    assert all(alternating_definitions_coincide(fibers, alternating))
    for name in standard_names():
        m = catalog(name)
        report = classify(m, SamplePlan(n_points=2))
        for row, check in zip(_theorems_for(m.kind), report.theorem_checks):
            assert ("subspace dimension" in check.details) == bool(row.note), name


def test_null_space_basis_is_complete_for_wide_and_tall_systems():
    rng = np.random.default_rng(7)
    for rows, cols, rank in ((2, 6, 2), (3, 9, 2), (9, 4, 3), (6, 6, 6)):
        dense = rng.integers(-3, 4, size=(rows, rank)) @ rng.integers(
            -3, 4, size=(rank, cols)
        )
        dense = dense.astype(float)
        nullity = cols - elimination_rank(dense)
        dim, basis = null_space(system_from_dense(dense))
        assert dim == len(basis) == nullity, (rows, cols)
        if nullity:
            b = np.stack(basis)
            assert np.allclose(b @ b.T, np.eye(nullity), atol=1e-12)
            assert np.max(np.abs(dense @ b.T)) < 1e-9


@st.composite
def split_systems(draw):
    """Integer blocks laid out block-diagonally under shuffled rows and columns.

    Block 0 is the fixed 1 x 1 block (2), so the largest singular value is
    at least 2.  Rows may hold a coefficient split over two entries of one
    column and a pair of entries that cancel; some columns are in no row;
    and one drawn block may be scaled by 1e-12.  Returns the system, the
    rows of the scaled block and the number of columns.
    """
    blocks = [np.array([[2]])]
    for _ in range(draw(st.integers(1, 4))):
        r, c = draw(st.integers(0, 5)), draw(st.integers(1, 4))
        values = draw(st.lists(st.integers(-3, 3), min_size=r * c, max_size=r * c))
        blocks.append(np.array(values, dtype=int).reshape(r, c))
    n_rows = sum(b.shape[0] for b in blocks)
    n_cols = sum(b.shape[1] for b in blocks) + draw(st.integers(0, 3))
    row_at = draw(st.permutations(range(n_rows)))
    col_at = draw(st.permutations(range(n_cols)))
    small = draw(st.sampled_from([None] + list(range(1, len(blocks)))))
    rows = [None] * n_rows
    small_rows = []
    r0 = c0 = 0
    for b, block in enumerate(blocks):
        scale = 1e-12 if b == small else 1.0
        for i, line in enumerate(block):
            row = [(col_at[c0 + j], float(v) * scale) for j, v in enumerate(line) if v]
            if row and draw(st.booleans()):
                col, v = row[0]
                part = draw(st.integers(-3, 3)) * scale
                row[0:1] = [(col, part), (col, v - part)]
            if draw(st.booleans()):
                col = col_at[c0 + draw(st.integers(0, block.shape[1] - 1))]
                x = draw(st.integers(1, 3)) * scale
                row += [(col, x), (col, -x)]
            rows[row_at[r0 + i]] = row
            if b == small:
                small_rows.append(row_at[r0 + i])
        r0 += block.shape[0]
        c0 += block.shape[1]
    system = system_from_rows(n_cols, rows)
    return system, small_rows, n_cols


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(split_systems())
def test_block_split_numeric_route_matches_the_dense_svd_and_the_exact_route(drawn):
    system, small_rows, n = drawn
    matrix = dense(system)
    expected = dense_nullity(matrix)
    assert numeric_nullity(system) == expected
    dim, basis = null_space(system)
    assert dim == len(basis) == expected
    # the scaled block sits below the cutoff of the whole system, so its
    # rows count as absent; the exact route sees them, so it is given the
    # system without them
    kept = [row for r, row in enumerate(system.rows) if r not in small_rows]
    assert exact_nullity(system_from_rows(n, kept)) == expected
    if basis:
        b = np.stack(basis)
        assert b.shape == (dim, n)
        assert np.allclose(b @ b.T, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(matrix @ b.T)) < 1e-9


def labels(system):
    """``linalg._blocks`` of ``system`` as lists: row labels, unknown labels."""
    return [a.tolist() for a in linalg._blocks(system)]


def test_blocks_follow_the_pattern_not_the_coefficients():
    rows = [
        [(3, 1.0), (0, 2.0)],
        [],  # in no block: labelled by the block count
        [(1, 1.0), (4, 1.0), (1, -1.0)],  # cancels in column 1, joins 1 and 4
        [(0, 1.0)],
        [(5, 1.0), (5, -1.0)],  # cancels, a block on its own
    ]
    # blocks in the order of their smallest unknown: {0, 3}, {1, 4}, {2}
    # with no rows, {5} and {6} with no rows
    assert labels(system_from_rows(7, rows)) == [
        [0, 5, 1, 0, 3],
        [0, 1, 2, 0, 1, 3, 4],
    ]


def test_a_chain_of_rows_is_one_block():
    # a path 0 - 1 - ... - 9 whose rows come in scrambled order
    order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    rows = [[(k + 1, 1.0), (k, -1.0)] for k in order]
    system = system_from_rows(10, rows)
    assert labels(system) == [[0] * 9, [0] * 10]
    assert numeric_nullity(system) == exact_nullity(system) == 1


def test_no_rank_route_reads_the_rows_view(monkeypatch):
    systems = [
        build_constraints(ModelFiber.standard(kind, n), query)
        for kind in KINDS
        for n in range(1, MAX_HALF_DIM + 1)
        for query in SubspaceQuery
    ]
    expected = [
        (exact_nullity(s), numeric_nullity(s), null_space(s)[0], labels(s))
        for s in systems
    ]

    def unread(self):
        raise AssertionError("a rank route read the rows view")

    monkeypatch.setattr(LinearConstraintSystem, "rows", property(unread))
    for system, (exact, numeric, basis_dim, block_labels) in zip(systems, expected):
        assert exact_nullity(system) == numeric_nullity(system) == exact
        assert null_space(system)[0] == basis_dim == numeric
        assert labels(system) == block_labels


def test_trailing_empty_rows_keep_their_count():
    rows = [[(0, 1.0), (1, -1.0)], [], [(2, 1.0), (2, -1.0)], [], []]
    by_rows = system_from_rows(4, rows)
    by_entries = LinearConstraintSystem.from_entries(
        4, [2, 0, 2, 0, 0], [0, 1, 2, 2], [1.0, -1.0, 1.0, -1.0]
    )
    for system in (by_rows, by_entries):
        assert system.n_rows == 5
        assert system.rows == tuple(tuple(row) for row in rows)
        assert dense(system).tolist() == [
            [1.0, -1.0, 0.0, 0.0],
            [0.0] * 4,
            [0.0] * 4,
            [0.0] * 4,
            [0.0] * 4,
        ]
        assert labels(system) == [[0, 3, 1, 3, 3], [0, 0, 1, 2]]
        assert exact_nullity(system) == numeric_nullity(system) == 3
        assert null_space(system)[0] == 3
    only_empty = system_from_rows(2, [[], []])
    assert only_empty.n_rows == 2 and dense(only_empty).shape == (2, 2)
    assert labels(only_empty) == [[2, 2], [0, 1]]
    assert exact_nullity(only_empty) == numeric_nullity(only_empty) == 2


def reference_spectra(system):
    """Each block's singular values from the dense matrix, keyed by its columns.

    The loop reference for ``_block_spectra``: blocks gathered one at a
    time from the labels, each taken by its own SVD.
    """
    row_block, col_block = linalg._blocks(system)
    matrix = dense(system)
    spectra = {}
    for b in range(col_block.max() + 1):
        cols = np.flatnonzero(col_block == b)
        block = matrix[np.ix_(np.flatnonzero(row_block == b), cols)]
        spectra[tuple(cols.tolist())] = np.linalg.svd(block, compute_uv=False)
    return spectra


def test_label_grouping_gathers_each_block_as_the_loop_reference():
    # a: a 1 x 2 block, a row with no entry, a row that cancels (a 1 x 1
    # block of zero) and two unknowns no row touches; b: a 1 x 2 block of
    # the shape of a's, from another system of the same stack, and an
    # unknown no row touches
    a = system_from_rows(5, [[(0, 1.0), (1, 2.0)], [], [(3, 1.0), (3, -1.0)]])
    b = system_from_rows(3, [[(1, 3.0), (2, -1.0)]])
    stacked, owner = linalg._stacked([a, b])
    # every standard system alone, and the n=2 ones stacked: many blocks of
    # one shape from different systems
    fibers = standard_fibers()
    standard = [build_constraints(f, q) for f in fibers for q in SubspaceQuery]
    n2 = linalg._stacked([s for s in standard if s.n_unknowns == 64])[0]
    for system in [a, b, stacked, n2] + standard:
        expected = reference_spectra(system)
        spectra = linalg._block_spectra(system, compute_uv=False)
        got = {
            tuple(cols): sigma
            for block_cols, values, _ in spectra
            for cols, sigma in zip(block_cols.tolist(), values)
        }
        assert got.keys() == expected.keys()
        for cols, sigma in expected.items():
            assert np.array_equal(got[cols], sigma), cols
    # one stacked SVD per shape: the two 1 x 2 blocks of a and b together
    shapes = {
        (sigma.shape[1], cols.shape[1]): owner[cols[:, 0]].tolist()
        for cols, sigma, _ in linalg._block_spectra(stacked, compute_uv=False)
    }
    assert shapes == {(1, 2): [0, 1], (0, 1): [0, 0, 1], (1, 1): [0]}
    assert numeric_nullities([a, b]) == [dense_nullity(dense(s)) for s in (a, b)]
    assert numeric_nullities([a, b]) == [4, 2]
    for system, untouched in ((a, (2, 4)), (b, (0,))):
        dim, basis = null_space(system)
        assert dim == dense_nullity(dense(system))
        basis = np.stack(basis)
        assert np.allclose(basis @ basis.T, np.eye(dim), atol=1e-12)
        assert np.max(np.abs(dense(system) @ basis.T)) < 1e-12
        # an unknown no row touches takes the identity for V: its unit vector
        for u in untouched:
            unit = np.eye(system.n_unknowns)[u]
            assert any(np.array_equal(v, unit) for v in basis), u


def test_an_elimination_that_never_clears_its_column_raises(monkeypatch):
    # ``_eliminate`` with + for -: it adds the pivot row in place of taking
    # it away, so min(new) never rises; the bounded stage-3 loop raises the
    # internal error (exit 3) where an unbounded one would not return
    def plus(row, pivot, col):
        g = math.gcd(pivot[col], row[col])
        p, r = pivot[col] // g, row[col] // g
        out = {c: p * v for c, v in row.items()}
        for c, v in pivot.items():
            out[c] = out.get(c, 0) + r * v
        return linalg._primitive({c: v for c, v in out.items() if v})

    rows = [[(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1.0), (1, 2.0), (2, 3.0)]]
    system = system_from_rows(3, rows)
    assert exact_nullity(system) == 1
    monkeypatch.setattr(linalg, "_eliminate", plus)
    with pytest.raises(InternalConsistencyError, match="stage-3 elimination"):
        exact_nullity(system)


@st.composite
def small_integer_systems(draw):
    """A system of up to 6 rows on 1-6 unknowns, coefficients in -3..3.

    Rows may be empty or hold one column twice, some unknowns are in no
    row, and the system may have no rows; rows of three or more entries,
    or of two unequal ones, reach stage 3 of the exact route.  The whole
    system is scaled by 1, 2**20 or 2**40, which changes no nullity but
    moves its singular values far from those of the other systems drawn.
    """
    n = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, n - 1), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(entry, max_size=4), max_size=6))
    scale = draw(st.sampled_from([1.0, 2.0**20, 2.0**40]))
    return system_from_rows(n, [[(c, v * scale) for c, v in row] for row in rows])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(small_integer_systems(), min_size=1, max_size=5))
def test_a_batch_counts_each_system_as_it_counts_alone(systems):
    # each system has its own cutoff and its own pivots: a batch reads what
    # the systems read one at a time, and both read the dense SVD's rank
    expected = [dense_nullity(dense(s)) for s in systems]
    # a lone system is not copied into a stack of one
    assert linalg._stacked(systems[:1])[0] is systems[0]
    assert numeric_nullities(systems) == [numeric_nullity(s) for s in systems]
    assert exact_nullities(systems) == [exact_nullity(s) for s in systems]
    assert exact_nullities(systems) == [fraction_nullity(s) for s in systems]
    assert numeric_nullities(systems) == exact_nullities(systems) == expected


def test_a_small_system_keeps_its_own_cutoff_in_a_batch():
    # 1e-12 x0 = 0 alone has rank 1; against the cutoff of x0 = 0 in the
    # same batch it would read rank 0
    small = system_from_rows(1, [[(0, 1e-12)]])
    large = system_from_rows(2, [[(0, 1.0), (1, 1.0)]])
    assert numeric_nullities([small, large]) == [0, 1]
    assert numeric_nullities([large, small]) == [1, 0]


def package_nodes():
    """(file name, node) for every syntax node of every module of the package."""
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_module_defines_or_reads_a_dense_system_matrix():
    # the numeric route gathers its block stacks from the entry arrays;
    # ``to_dense`` lives in tests/support.py as ``dense``
    found = []
    for name, node in package_nodes():
        ident = getattr(node, "name", None) or getattr(node, "attr", None)
        if "to_dense" in (ident, getattr(node, "id", None)):
            found.append(name)
    assert found == []


def test_no_module_merges_rows_in_rationals():
    # the exact route takes integer rows and merges them in numpy alone; a
    # second merge path through float ratios or ``Fraction`` stays out
    found = []
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [getattr(node, "module", None)]
        if "fractions" in modules or getattr(node, "attr", None) == "as_integer_ratio":
            found.append((name, node.lineno))
    assert found == []
