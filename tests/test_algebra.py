"""Pointwise constraint subspaces: dimensions, invariance, and basis checks."""

import numpy as np
import pytest

from aegeom.algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    alternating_definitions_coincide,
    build_constraints,
    dimension_table,
    subspace_dimension,
)
from aegeom import algebra, linalg
from aegeom.errors import DimensionOracleMismatch, UnsupportedDimension
from aegeom.linalg import LinearConstraintSystem, null_space
from aegeom.manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
)


def test_standard_fibers_exist_for_all_kinds_and_sizes():
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            fiber = ModelFiber.standard(kind, n)
            assert fiber.dim == 2 * n
            d = fiber.dim
            assert np.array_equal(
                fiber.j0 @ fiber.j0, kind.alpha * np.eye(d, dtype=int)
            )
            assert np.array_equal(
                fiber.j0.T @ fiber.inner @ fiber.j0, kind.epsilon * fiber.inner
            )


def test_fiber_rejects_out_of_range_sizes():
    with pytest.raises(UnsupportedDimension):
        ModelFiber.standard(HERMITIAN, 0)
    with pytest.raises(UnsupportedDimension):
        ModelFiber.standard(HERMITIAN, MAX_HALF_DIM + 1)


def test_fiber_validates_its_matrices():
    j0 = np.array([[0, -1], [1, 0]])
    eye = np.eye(2, dtype=int)
    with pytest.raises(ValueError):
        ModelFiber(n=1, kind=HERMITIAN, j0=eye, inner=eye)  # squares to +Id
    with pytest.raises(ValueError):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=np.diag([1, -1]))
    with pytest.raises(ValueError):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        ModelFiber(
            n=1,
            kind=PRODUCT_RIEMANNIAN,
            j0=np.eye(2, dtype=int),
            inner=np.eye(2, dtype=int),
        )  # nonzero trace


def test_smallest_full_system_shape():
    fiber = ModelFiber.standard(HERMITIAN, 1)
    system = build_constraints(fiber, SubspaceQuery.FULL)
    assert system.n_unknowns == 8
    assert system.n_rows == 16


def test_constraint_counts_scale_with_dimension():
    fiber = ModelFiber.standard(NORDEN, 2)
    d = fiber.dim
    full = build_constraints(fiber, SubspaceQuery.FULL)
    alt = build_constraints(fiber, SubspaceQuery.ALTERNATING)
    assert full.n_unknowns == d**3
    assert alt.n_rows == full.n_rows + d**3


FULL_DIMS = {
    "hermitian": {1: 0, 2: 8, 3: 36},
    "para-hermitian": {1: 0, 2: 8, 3: 36},
    "norden": {1: 2, 2: 16, 3: 54},
    "product-riemannian": {1: 2, 2: 16, 3: 54},
}

ALT_DIMS = {
    "hermitian": {1: 0, 2: 0, 3: 2},
    "para-hermitian": {1: 0, 2: 0, 3: 2},
    "norden": {1: 0, 2: 0, 3: 0},
    "product-riemannian": {1: 0, 2: 0, 3: 0},
}


def test_full_subspace_dimensions_follow_the_closed_forms():
    for kind in KINDS:
        for n in range(1, 4):
            fiber = ModelFiber.standard(kind, n)
            dim = subspace_dimension(fiber, SubspaceQuery.FULL)
            assert dim == FULL_DIMS[kind.label][n], (kind.label, n)
            if kind.product == -1:
                assert dim == 2 * n * n * (n - 1)
            else:
                assert dim == 2 * n**3


def test_alternating_dimensions():
    for kind in KINDS:
        for n in range(1, 4):
            fiber = ModelFiber.standard(kind, n)
            dim = subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
            assert dim == ALT_DIMS[kind.label][n], (kind.label, n)


def test_symmetric_subspace_is_always_zero():
    for kind in KINDS:
        for n in range(1, 4):
            fiber = ModelFiber.standard(kind, n)
            assert subspace_dimension(fiber, SubspaceQuery.SYMMETRIC) == 0


def test_dimension_table_layout_matches_individual_queries():
    table = dimension_table()
    assert set(table) == {k.label for k in KINDS}
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            cell = table[kind.label][n]
            assert cell["full"] == FULL_DIMS[kind.label][n]
            assert cell["alternating_first_two"] == ALT_DIMS[kind.label][n]
            assert cell["symmetric_first_two"] == 0


def test_dimensions_are_basis_independent():
    shear = np.array([[1, 1], [0, 1]])
    flip = np.array([[0, 1], [1, 0]])
    for kind in KINDS:
        fiber = ModelFiber.standard(kind, 1)
        for s in (shear, flip, shear @ flip):
            moved = fiber.conjugated(s)
            for query in SubspaceQuery:
                assert subspace_dimension(moved, query) == subspace_dimension(
                    fiber, query
                ), (kind.label, query)


def test_dimensions_are_basis_independent_in_dimension_four():
    rng = np.random.default_rng(6)
    fiber = ModelFiber.standard(NORDEN, 2)
    # random integer unimodular matrix from elementary shears
    s = np.eye(4, dtype=int)
    for _ in range(6):
        i, j = rng.integers(0, 4, 2)
        if i == j:
            continue
        e = np.eye(4, dtype=int)
        e[i, j] = int(rng.integers(-2, 3))
        s = s @ e
    moved = fiber.conjugated(s)
    for query in SubspaceQuery:
        assert subspace_dimension(moved, query) == subspace_dimension(fiber, query)


def test_conjugation_rejects_non_unimodular_matrices():
    fiber = ModelFiber.standard(HERMITIAN, 1)
    with pytest.raises(ValueError):
        fiber.conjugated(np.diag([2, 1]))
    with pytest.raises(ValueError):
        fiber.conjugated(np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        fiber.conjugated(np.eye(4, dtype=int))


def satisfies_defining_identities(fiber, phi, rng, n_triples=20, tol=1e-9):
    d = fiber.dim
    ae = fiber.kind.product
    j0 = fiber.j0.astype(float)
    for _ in range(n_triples):
        x, y, z = rng.uniform(-1.0, 1.0, (3, d))
        base = float(np.einsum("ijk,i,j,k->", phi, x, y, z))
        swapped = float(np.einsum("ijk,i,j,k->", phi, x, z, y))
        if abs(base - ae * swapped) >= tol:
            return False
        left = float(np.einsum("ijk,i,j,k->", phi, x, j0 @ y, z))
        right = float(np.einsum("ijk,i,j,k->", phi, x, y, j0 @ z))
        if abs(left + ae * right) >= tol:
            return False
    return True


def test_null_space_bases_satisfy_the_defining_identities():
    rng = np.random.default_rng(8)
    for kind in (NORDEN, PRODUCT_RIEMANNIAN):
        fiber = ModelFiber.standard(kind, 2)
        system = build_constraints(fiber, SubspaceQuery.FULL)
        dim, basis = null_space(system)
        assert dim == 16
        for vec in basis:
            phi = vec.reshape(4, 4, 4)
            assert satisfies_defining_identities(fiber, phi, rng)


def test_alternating_basis_is_antisymmetric_in_first_two_slots():
    fiber = ModelFiber.standard(PARA_HERMITIAN, 3)
    system = build_constraints(fiber, SubspaceQuery.ALTERNATING)
    dim, basis = null_space(system)
    assert dim == 2
    rng = np.random.default_rng(12)
    for vec in basis:
        phi = vec.reshape(6, 6, 6)
        assert satisfies_defining_identities(fiber, phi, rng)
        assert np.max(np.abs(phi + np.einsum("ijk->jik", phi))) < 1e-9


def test_both_renderings_of_the_alternating_condition_agree():
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            fiber = ModelFiber.standard(kind, n)
            assert alternating_definitions_coincide(fiber), (kind.label, n)


def test_wrong_numeric_rank_trips_the_dimension_oracle(monkeypatch):
    fiber = ModelFiber.standard(PARA_HERMITIAN, 2)
    subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    true_rank = linalg._numeric_rank
    monkeypatch.setattr(
        linalg, "_numeric_rank", lambda sigma, tol: true_rank(sigma, tol) - 1
    )
    with pytest.raises(DimensionOracleMismatch):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_wrong_exact_rank_trips_the_dimension_oracle(monkeypatch):
    fiber = ModelFiber.standard(HERMITIAN, 3)
    subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    true_nullity = algebra.exact_nullity
    monkeypatch.setattr(
        algebra, "exact_nullity", lambda system: true_nullity(system) + 1
    )
    with pytest.raises(DimensionOracleMismatch, match="exact dimension 3"):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_a_split_that_drops_a_row_trips_the_dimension_oracle(monkeypatch):
    # the first block of the product-Riemannian n=3 full system is the
    # unknown phi_000 alone: its swap row cancels, and the structure row
    # 2 phi_000 = 0 is the only one that pins it, so without that row the
    # numeric route finds one null vector too many
    fiber = ModelFiber.standard(PRODUCT_RIEMANNIAN, 3)
    true_blocks = linalg._blocks

    def dropping(system):
        blocks = true_blocks(system)
        rows, cols = blocks[0]
        blocks[0] = (rows[:-1], cols)
        return blocks

    monkeypatch.setattr(linalg, "_blocks", dropping)
    with pytest.raises(DimensionOracleMismatch, match="numeric dimension 55"):
        subspace_dimension(fiber, SubspaceQuery.FULL)


def test_a_split_that_cuts_a_block_in_two_trips_the_dimension_oracle(monkeypatch):
    # halving the largest block's unknowns turns every row that crosses the
    # cut into a one-term row on each side, which kills a null vector
    fiber = ModelFiber.standard(HERMITIAN, 3)
    true_blocks = linalg._blocks

    def cutting(system):
        blocks = true_blocks(system)
        big = max(range(len(blocks)), key=lambda b: blocks[b][1].size)
        rows, cols = blocks[big]
        half = cols.size // 2
        blocks[big : big + 1] = [(rows, cols[:half]), (rows, cols[half:])]
        return blocks

    monkeypatch.setattr(linalg, "_blocks", cutting)
    with pytest.raises(DimensionOracleMismatch, match="numeric dimension 1 "):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_the_dimension_table_takes_no_svd_wider_than_a_block(monkeypatch):
    # the widest block of any standard system up to n=3 has 24 unknowns;
    # a dense SVD of a whole n=3 system would have 216
    shapes = []
    true_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return true_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    dimension_table()
    assert shapes
    assert max(shape[-1] for shape in shapes) == 24



def loop_rows(fiber, extra):
    """The constraint rows written as nested loops, the builders' reference."""
    d, ae, j0 = fiber.dim, fiber.kind.product, fiber.j0
    index = lambda i, j, k: (i * d + j) * d + k  # noqa: E731
    cube = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
    rows = [[(index(i, j, k), 1.0), (index(i, k, j), float(-ae))] for i, j, k in cube]
    for i, j, k in cube:
        row = []
        for m in range(d):
            if j0[m, j]:
                row.append((index(i, m, k), float(j0[m, j])))
            if j0[m, k]:
                row.append((index(i, j, m), float(ae * j0[m, k])))
        rows.append(row)
    if extra == "polarized":
        rows += [[(index(i, i, k), 1.0)] for i in range(d) for k in range(d)]
        rows += [
            [(index(i, j, k), 1.0), (index(j, i, k), 1.0)]
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(d)
        ]
    elif extra is not None:
        rows += [[(index(i, j, k), 1.0), (index(j, i, k), extra)] for i, j, k in cube]
    return LinearConstraintSystem.from_rows(d**3, rows)


def test_constraint_builders_match_the_nested_loops():
    s = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    for kind in KINDS:
        fibers = [ModelFiber.standard(kind, n) for n in (1, 2, 3)]
        fibers.append(ModelFiber.standard(kind, 2).conjugated(s))
        for fiber in fibers:
            d = fiber.dim
            built = {
                None: build_constraints(fiber, SubspaceQuery.FULL),
                1.0: build_constraints(fiber, SubspaceQuery.ALTERNATING),
                -1.0: build_constraints(fiber, SubspaceQuery.SYMMETRIC),
                "polarized": algebra._system(
                    d, algebra._base_rows(fiber), algebra._polarized_rows(d)
                ),
            }
            for extra, system in built.items():
                reference = loop_rows(fiber, extra)
                assert (system.n_unknowns, system.n_rows) == (
                    reference.n_unknowns,
                    reference.n_rows,
                ), (kind.label, d, extra)
                for ours, theirs in zip(system.entries, reference.entries):
                    assert np.array_equal(ours, theirs)
