"""Null spaces against hand-rolled elimination oracles."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aegeom.algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    _polarized_rows,
    _system,
    build_constraints,
    dimension_table,
    standard_fibers,
)
from aegeom.errors import DegenerateSystem, SlotMismatch
from aegeom import linalg
from aegeom.linalg import (
    LinearConstraintSystem,
    exact_nullities,
    exact_nullity,
    null_space,
    numeric_nullities,
    numeric_nullity,
)
from aegeom.manifold import KINDS
from support import dense, dense_nullity, system_from_rows


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
    # float combinations of float rows are only approximately dependent;
    # the rational route counts true rank while the svd route uses the
    # tolerance.  They are only meant to agree on exact coefficient rows.
    rng = np.random.default_rng(11)
    core = rng.standard_normal((3, 7))
    mix = rng.standard_normal((2, 3))
    dense = np.vstack([core, mix @ core])
    sys = system_from_dense(dense)
    dim, _ = null_space(sys)
    assert dim == 4
    assert exact_nullity(sys) == 2


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
    # integers, then fractions with non-dyadic values such as 0.1 and 1/3
    values = [0.1, 1 / 3, 2.5, -0.75, 1e-3, 7.0, -2.0]
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
        # 0.1 + 0.1 and 0.4 are exactly 0.2 and 4 * 0.1: a multiple of the
        # next row, so the rank counts only if every row is scaled exactly
        [(0, 0.1), (0, 0.1), (1, 0.4)],
        [(0, 1.0), (1, 2.0)],
        [(1, 1 / 3), (2, 1.0), (1, 2 / 3), (2, -1.0)],
        [(2, 2.5), (3, 0.5), (2, -2.5)],
        [(3, 1.0), (3, -1.0)],
        [(0, 0.1), (0, 0.2), (1, -0.3), (3, 1e-3)],
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
            systems.append(
                _system(fiber.dim, fiber.base_rows, _polarized_rows(fiber.dim))
            )
            for sys in systems:
                assert exact_nullity(sys) == fraction_nullity(sys), (kind.label, n)


# coefficients of the signed-graph pieces: dyadic, non-dyadic, and large
LINK_SIZES = [1.0, 3.0, 0.5, 0.1, 1 / 3, 2.0**52]


@st.composite
def signed_graph_systems(draw):
    """Systems built to reach every stage of ``exact_nullity``.

    Rows come in pieces, shuffled: identification rows c x_u +- c x_v of
    both signs; closed cycles of them, balanced or not; single-entry rows;
    repeated columns that cancel or merge to +-2 or into an identification
    row; the row 2**53 x_u + x_u - 2**53 x_u, which a float merge rounds
    to zero; empty rows; and general rows of three or four random entries,
    left for stage 3.  Coefficients are integers or dyadic or non-dyadic
    fractions.
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
            rows.append([(draw(unknown), 2.0**53), (0, 1.0), (0, -(2.0**53))])
        elif piece == 5:
            rows.append([])
        else:
            cols = draw(st.lists(unknown, min_size=3, max_size=4))
            values = st.sampled_from([1.0, -2.0, 3.0, 0.5, 0.1, -1 / 3])
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
    # a float merge of 2**53 + 1 - 2**53 gives 0 and misses the kill
    rounding = [[(0, 2.0**53), (0, 1.0), (0, -(2.0**53))]]
    # repeated columns: a cancelling row, and 2 x0 - 2 x1 after merging
    repeated = [[(0, 1.0), (0, -1.0)], [(0, 1.0), (1, -1.0), (0, 1.0), (1, -1.0)]]
    # x0 = x1 and x0 + x1 + x2 = 0: stage 3 sees 2 t + x2 = 0
    general = [[(0, 1.0), (1, -1.0)], [(0, 1.0), (1, 1.0), (2, 1.0)]]
    cases = [
        (balanced, 1),
        (unbalanced, 0),
        (killed, 1),
        (rounding, 2),
        (repeated, 2),
        (general, 1),
    ]
    for rows, nullity in cases:
        system = system_from_rows(3, rows)
        assert exact_nullity(system) == fraction_nullity(system) == nullity, rows


def test_the_dimension_table_needs_no_general_elimination(monkeypatch):
    # every row of a standard fiber's system merges in numpy and is a
    # signed-graph row, so the table never reaches the Python integer code
    def unreached(*args):
        raise AssertionError("a standard fiber reached integer elimination")

    monkeypatch.setattr(linalg, "_eliminate", unreached)
    monkeypatch.setattr(linalg, "_integer_row", unreached)
    table = dimension_table(standard_fibers())
    assert table["hermitian"][3]["alternating_first_two"] == 2


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


def test_blocks_follow_the_pattern_not_the_coefficients():
    rows = [
        [(3, 1.0), (0, 2.0)],
        [],
        [(1, 1.0), (4, 1.0), (1, -1.0)],  # cancels in column 1, joins 1 and 4
        [(0, 1.0)],
        [(5, 1.0), (5, -1.0)],  # cancels, a block on its own
    ]
    blocks = linalg._blocks(system_from_rows(7, rows))
    assert [(r.tolist(), c.tolist()) for r, c in blocks] == [
        ([0, 3], [0, 3]),
        ([2], [1, 4]),
        ([], [2]),
        ([4], [5]),
        ([], [6]),
    ]


def test_a_chain_of_rows_is_one_block():
    # a path 0 - 1 - ... - 9 whose rows come in scrambled order
    order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    rows = [[(k + 1, 1.0), (k, -1.0)] for k in order]
    system = system_from_rows(10, rows)
    ((block_rows, block_cols),) = linalg._blocks(system)
    assert block_rows.tolist() == list(range(9))
    assert block_cols.tolist() == list(range(10))
    assert numeric_nullity(system) == exact_nullity(system) == 1


def test_no_rank_route_reads_the_rows_view(monkeypatch):
    systems = [
        build_constraints(ModelFiber.standard(kind, n), query)
        for kind in KINDS
        for n in range(1, MAX_HALF_DIM + 1)
        for query in SubspaceQuery
    ]
    expected = [
        (exact_nullity(s), numeric_nullity(s), null_space(s)[0], linalg._blocks(s))
        for s in systems
    ]

    def unread(self):
        raise AssertionError("a rank route read the rows view")

    monkeypatch.setattr(LinearConstraintSystem, "rows", property(unread))
    for system, (exact, numeric, basis_dim, blocks) in zip(systems, expected):
        assert exact_nullity(system) == numeric_nullity(system) == exact
        assert null_space(system)[0] == basis_dim == numeric
        for (rows, cols), (rows0, cols0) in zip(linalg._blocks(system), blocks):
            assert np.array_equal(rows, rows0) and np.array_equal(cols, cols0)


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
        blocks = [(r.tolist(), c.tolist()) for r, c in linalg._blocks(system)]
        assert blocks == [([0], [0, 1]), ([2], [2]), ([], [3])]
        assert exact_nullity(system) == numeric_nullity(system) == 3
        assert null_space(system)[0] == 3
    only_empty = system_from_rows(2, [[], []])
    assert only_empty.n_rows == 2 and dense(only_empty).shape == (2, 2)
    assert exact_nullity(only_empty) == numeric_nullity(only_empty) == 2


@st.composite
def small_integer_systems(draw):
    """A system of up to 6 rows on 1-6 unknowns, coefficients in -3..3.

    Rows may be empty or hold one column twice, some unknowns are in no
    row, and the system may have no rows; rows of three or more entries,
    or of two unequal ones, reach stage 3 of the exact route.  The whole
    system is scaled by 2**-40, 1 or 2**40, which changes no nullity but
    moves its singular values far from those of the other systems drawn.
    """
    n = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, n - 1), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(entry, max_size=4), max_size=6))
    scale = draw(st.sampled_from([2.0**-40, 1.0, 2.0**40]))
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
    assert numeric_nullities(systems) == exact_nullities(systems) == expected


def test_a_small_system_keeps_its_own_cutoff_in_a_batch():
    # 1e-12 x0 = 0 alone has rank 1; against the cutoff of x0 = 0 in the
    # same batch it would read rank 0
    small = system_from_rows(1, [[(0, 1e-12)]])
    large = system_from_rows(2, [[(0, 1.0), (1, 1.0)]])
    assert numeric_nullities([small, large]) == [0, 1]
    assert numeric_nullities([large, small]) == [1, 0]


def test_no_module_defines_or_reads_a_dense_system_matrix():
    # the numeric route gathers its block stacks from the entry arrays;
    # ``to_dense`` lives in tests/support.py as ``dense``
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "name", None) or getattr(node, "attr", None)
            if "to_dense" in (name, getattr(node, "id", None)):
                found.append(path.name)
    assert found == []
