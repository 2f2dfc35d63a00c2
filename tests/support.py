"""Test fixtures that build library objects the library itself never needs.

``system_from_rows`` writes a constraint system as lists of (column,
coefficient) pairs, and ``conjugated`` moves a model fiber through an
integer basis change; both end in the library's own validating
constructors.  ``numeric_nullity`` is the numeric route on one system.
``dense`` writes a system out as a matrix, and ``dense_nullity`` is the
rank reference the library's routes are held to: one SVD of the whole
matrix.  ``fd_christoffel`` is the Christoffel oracle, which shares no code
with the dual-number route, and ``polar_like`` a curved chart it is checked
on.
"""

import numpy as np

from aegeom.algebra import ModelFiber
from aegeom.linalg import NULL_SPACE_TOL, LinearConstraintSystem, numeric_nullities
from aegeom.manifold import HERMITIAN, Box, ChartedManifold, evaluate_fields


def system_from_rows(n_unknowns, rows):
    """``LinearConstraintSystem`` whose row r holds the pairs of ``rows[r]``."""
    rows = [list(row) for row in rows]
    return LinearConstraintSystem.from_entries(
        n_unknowns,
        [len(row) for row in rows],
        [col for row in rows for col, _ in row],
        [coeff for row in rows for _, coeff in row],
    )


def conjugated(fiber, s):
    """``fiber`` seen through the basis change x -> s x, for a unimodular ``s``.

    The inverse is rounded to integers and checked exactly, since
    ``ModelFiber`` rejects an entry that is not an integer.
    """
    s = np.asarray(s, dtype=int)
    s_inv = np.rint(np.linalg.inv(s)).astype(int)
    assert np.array_equal(s @ s_inv, np.eye(len(s), dtype=int))
    return ModelFiber(
        n=fiber.n,
        kind=fiber.kind,
        j0=s @ fiber.j0 @ s_inv,
        inner=s_inv.T @ fiber.inner @ s_inv,
    )


def numeric_nullity(system):
    """``numeric_nullities`` of one system."""
    return numeric_nullities([system])[0]


def dense(system):
    """Dense coefficient matrix of ``system``; repeated columns in a row add up."""
    row_of, cols, coeffs = system.entries
    matrix = np.zeros((system.n_rows, system.n_unknowns))
    np.add.at(matrix, (row_of, cols), coeffs)
    return matrix


def dense_nullity(matrix, tol=NULL_SPACE_TOL):
    """Nullity by one SVD of the whole matrix, with the library's relative cutoff."""
    sigma = np.linalg.svd(matrix, compute_uv=False) if matrix.size else np.zeros(0)
    return matrix.shape[1] - int(np.sum(sigma > tol * sigma.max(initial=0.0)))


def fd_christoffel(m, point, h=1e-6):
    """Koszul formula with centered finite differences of the metric."""
    d = m.dim
    g, _ = evaluate_fields(m, point)
    dg = np.empty((d, d, d))
    for k in range(d):
        hi = list(point)
        hi[k] += h
        lo = list(point)
        lo[k] -= h
        g_hi, _ = evaluate_fields(m, hi)
        g_lo, _ = evaluate_fields(m, lo)
        dg[k] = (g_hi - g_lo) / (2 * h)
    ginv = np.linalg.inv(g)
    rhs = np.einsum("ilj->lij", dg) + np.einsum("jil->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, rhs)


def polar_like():
    """g = diag(1, x1^2) with the rotation J, on a box with x1 around 2."""
    return ChartedManifold(
        name="polar",
        kind=HERMITIAN,
        dim=2,
        domain=Box((1.0, -1.0), (3.0, 1.0)),
        fields=lambda c: (
            [[1.0, 0.0 * c[0]], [0.0 * c[0], c[0] * c[0]]],
            [[0.0, -1.0], [1.0, 0.0]],
        ),
    )
