"""Test fixtures that build library objects the library itself never needs.

``system_from_rows`` writes a constraint system as lists of (column,
coefficient) pairs, and ``conjugated`` moves a model fiber through an
integer basis change; both end in the library's own validating
constructors.  ``dense`` writes a system out as a matrix, and
``dense_nullity`` is the rank reference the library's routes are held to:
one SVD of the whole matrix.
"""

import numpy as np

from aegeom.algebra import ModelFiber
from aegeom.linalg import NULL_SPACE_TOL, LinearConstraintSystem


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
