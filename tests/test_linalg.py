"""Null spaces against hand-rolled elimination oracles."""

from fractions import Fraction

import numpy as np
import pytest

from aegeom.algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    _base_rows,
    _polarized_rows,
    build_constraints,
)
from aegeom.errors import DegenerateSystem, SlotMismatch
from aegeom.linalg import (
    LinearConstraintSystem,
    exact_nullity,
    null_space,
    numeric_nullity,
)
from aegeom.manifold import KINDS


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
    return LinearConstraintSystem.from_rows(np.atleast_2d(a).shape[1], rows)


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
    sysn = LinearConstraintSystem.from_rows(3, [])
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
    sys = LinearConstraintSystem.from_rows(2, [[(0, 1.0), (0, 1.0), (1, -2.0)]])
    assert np.allclose(sys.to_dense(), [[2.0, -2.0]])
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
        LinearConstraintSystem.from_rows(2, [[(2, 1.0)]])
    with pytest.raises(SlotMismatch):
        LinearConstraintSystem.from_rows(2, [[(-1, 1.0)]])


def test_zero_unknowns_is_degenerate():
    sys = LinearConstraintSystem(0, ())
    with pytest.raises(DegenerateSystem):
        null_space(sys)
    with pytest.raises(DegenerateSystem):
        exact_nullity(sys)


def test_null_space_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        null_space(system_from_dense(np.eye(2)), tol=0.0)


def test_numeric_nullity_counts_like_null_space():
    rng = np.random.default_rng(11)
    core = rng.standard_normal((3, 7))
    systems = [
        system_from_dense(np.eye(3)),
        system_from_dense(np.zeros((2, 4))),
        LinearConstraintSystem.from_rows(3, []),
        system_from_dense(np.vstack([core, rng.standard_normal((2, 3)) @ core])),
    ]
    for sys in systems:
        assert numeric_nullity(sys) == null_space(sys)[0]
    with pytest.raises(DegenerateSystem):
        numeric_nullity(LinearConstraintSystem.from_rows(0, []))
    with pytest.raises(ValueError):
        numeric_nullity(systems[0], tol=0.0)


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
        sys = LinearConstraintSystem.from_rows(4, rows[:k])
        assert exact_nullity(sys) == fraction_nullity(sys), k
    assert exact_nullity(LinearConstraintSystem.from_rows(4, rows[:2])) == 3


def test_exact_nullity_matches_the_fraction_oracle_on_the_model_fibers():
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            fiber = ModelFiber.standard(kind, n)
            systems = [build_constraints(fiber, query) for query in SubspaceQuery]
            polarized = _base_rows(fiber) + _polarized_rows(fiber.dim)
            systems.append(
                LinearConstraintSystem.from_rows(fiber.dim**3, polarized)
            )
            for sys in systems:
                assert exact_nullity(sys) == fraction_nullity(sys), (kind.label, n)


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
