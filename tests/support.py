"""Test fixtures that build library objects the library itself never needs.

``system_from_rows`` writes a constraint system as lists of (column,
coefficient) pairs, and ``conjugated`` moves a model fiber through an
integer basis change; both end in the library's own validating
constructors.
"""

import numpy as np

from aegeom.algebra import ModelFiber
from aegeom.linalg import LinearConstraintSystem


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
