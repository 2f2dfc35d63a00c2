"""Built-in manifold catalog.

Flat models come in all four structure kinds.  The sphere entry realizes the
classical non-integrable structure on the unit six-sphere: points are mapped
into the imaginary octonions through an inverse stereographic chart from the
pole -e1, and tangent vectors are rotated by the octonion cross product with
the base point.  Pullback entries conjugate a flat structure tensor by the
Jacobian of a fixed quadratic diffeomorphism, which keeps it integrable, and
then re-polarize the flat metric so the pair stays compatible without being
parallel; the two kinds whose paired form is antisymmetric need dimension
four for that, because on a surface they are parallel for every compatible
metric.  Random entries conjugate the flat structure by a seeded polynomial
matrix field and polarize a seeded positive-definite form.

Each entry has one field function returning the pair (metric, structure):
a curved entry builds J once and its metric from that J, and the sphere
builds its chart once for both.  The fields are written as the matrix
formulas they stand for, with ``matrix``, ``@``, ``.T`` and ``inv`` from
``aegeom.dual``.  The same function evaluates on float coordinates, on
arrays of coordinates (one entry per point) and on ``Dual`` coordinates; it
returns plain arrays, stacks of arrays or matrix ``Dual`` values
accordingly.  The flat entries return one read-only constant pair.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .dual import inv, matrix
from .errors import DegenerateConstruction, UnknownCatalogName
from .manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
    Box,
    ChartedManifold,
)
from .octonion import cross_matrix

RANDOM_RETRIES = 20

_FLAT_DATA = {
    "flat-kahler": (HERMITIAN, ((0.0, -1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0))),
    "flat-product-riemannian": (
        PRODUCT_RIEMANNIAN,
        ((1.0, 0.0), (0.0, -1.0)),
        ((1.0, 0.0), (0.0, 1.0)),
    ),
    "flat-anti-kahler": (
        NORDEN,
        ((0.0, -1.0), (1.0, 0.0)),
        ((1.0, 0.0), (0.0, -1.0)),
    ),
    "flat-para-kahler": (
        PARA_HERMITIAN,
        ((1.0, 0.0), (0.0, -1.0)),
        ((0.0, 1.0), (1.0, 0.0)),
    ),
}

_FLAT_BY_KIND = {kind.label: name for name, (kind, _, _) in _FLAT_DATA.items()}


def standard_names() -> Tuple[str, ...]:
    """Catalog entries exercised by the full test run."""
    return (
        "flat-kahler",
        "flat-product-riemannian",
        "flat-anti-kahler",
        "flat-para-kahler",
        "s6-nearly-kahler",
        "pullback-integrable-hermitian",
        "pullback-integrable-product-riemannian",
        "pullback-integrable-norden",
        "pullback-integrable-para-hermitian",
        "random-hermitian-13",
        "random-product-riemannian-7",
        "random-norden-42",
        "random-para-hermitian-5",
    )


def catalog(name: str) -> ChartedManifold:
    """Look up or construct a catalog manifold by name."""
    if name in _FLAT_DATA:
        return _flat(name)
    if name == "s6-nearly-kahler":
        return _six_sphere()
    if name.startswith("pullback-integrable-"):
        label = name[len("pullback-integrable-") :]
        if label in _FLAT_BY_KIND:
            return _pullback(label)
    if name.startswith("random-"):
        rest = name[len("random-") :]
        label, sep, seed_text = rest.rpartition("-")
        if sep and label in _FLAT_BY_KIND and seed_text.isdigit():
            return _random(label, int(seed_text))
    raise UnknownCatalogName(
        f"no catalog entry named {name!r}; known entries: "
        + ", ".join(standard_names())
        + ", random-<kind>-<seed>"
    )


def _flat(name: str) -> ChartedManifold:
    kind, j_rows, g_rows = _FLAT_DATA[name]
    pair = (np.array(g_rows), np.array(j_rows))
    for data in pair:
        data.setflags(write=False)
    box = Box((-1.5, -1.5), (1.5, 1.5))
    return ChartedManifold(
        name=name,
        kind=kind,
        dim=2,
        domain=box,
        fields=lambda coords: pair,
    )


# ---------------------------------------------------------------------------
# Six-sphere with the octonion cross-product structure.
# ---------------------------------------------------------------------------


def _s6_chart(u: Sequence):
    """Sphere point and chart Jacobian for the stereographic chart.

    The chart sends u in R^6 to ((1-s)/(1+s), u/(1+s)) with s = |u|^2/4,
    landing on the unit sphere in the imaginary octonions and missing only
    the pole -e1.  Returns (p, d, den) where p is the list of 7 components,
    d is the 7x6 Jacobian matrix, d[b][j] = d p_b / d u_j, and den = 1 + s.
    """
    s = (
        u[0] * u[0]
        + u[1] * u[1]
        + u[2] * u[2]
        + u[3] * u[3]
        + u[4] * u[4]
        + u[5] * u[5]
    ) * 0.25
    den = 1.0 + s
    den2 = den * den
    two_den2 = 2.0 * den2
    inv_den = 1.0 / den
    p = [(1.0 - s) / den] + [u[a] / den for a in range(6)]
    rows = [[-u[j] / den2 for j in range(6)]]
    for a in range(6):
        row = [-(u[a] * u[j]) / two_den2 for j in range(6)]
        row[a] = row[a] + inv_den
        rows.append(row)
    return p, matrix(rows), den


def _s6_fields(u: Sequence):
    p, d, den = _s6_chart(u)
    den2 = den * den
    # Column j of the Jacobian is tangent at p; rotate it by the cross
    # product with p, then pull back through the chart.  The chart is
    # conformal with factor 1/den^2, so (D^T D)^{-1} = den^2 * Id and the
    # pullback is den^2 * D^T w.
    return d.T @ d, d.T @ cross_matrix([den2 * x for x in p]) @ d


def _six_sphere() -> ChartedManifold:
    box = Box((-0.8,) * 6, (0.8,) * 6)
    return ChartedManifold(
        name="s6-nearly-kahler",
        kind=HERMITIAN,
        dim=6,
        domain=box,
        fields=_s6_fields,
    )


# ---------------------------------------------------------------------------
# Pullback entries: integrable structure, non-parallel metric.
# ---------------------------------------------------------------------------


def _phi_jacobian(x: Sequence):
    """Jacobian of a fixed quadratic diffeomorphism x + 0.1*q(x).

    In two variables q = (x1*x2 + x2^2, x1^2 - x1*x2); in four variables
    q = (x2*x3 + x4^2, x1*x4 + x3^2, x1*x2 - x2*x4, x1*x3 - x2^2).  Either
    way the Jacobian is strictly diagonally dominant on the pullback
    domain, hence invertible there.
    """
    if len(x) == 2:
        x1, x2 = x[0], x[1]
        dq = [[x2, x1 + 2.0 * x2], [2.0 * x1 - x2, -x1]]
    else:
        x1, x2, x3, x4 = x[0], x[1], x[2], x[3]
        dq = [
            [0.0, x3, x2, 2.0 * x4],
            [x4, 0.0, 2.0 * x3, x1],
            [x2, x1 - x4, 0.0, -x2],
            [x3, -2.0 * x2, x1, 0.0],
        ]
    return np.eye(len(dq)) + 0.1 * matrix(dq)


# On a surface, a structure whose paired form is antisymmetric is parallel
# for every compatible metric, so the hermitian and para-hermitian pullback
# entries live in dimension four, where the construction has room to be
# integrable without being parallel.
_PULLBACK_FLAT4 = {
    "hermitian": (
        (
            (0.0, -1.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, -1.0),
            (0.0, 0.0, 1.0, 0.0),
        ),
        (
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
        ),
    ),
    "para-hermitian": (
        (
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, -1.0, 0.0),
            (0.0, 0.0, 0.0, -1.0),
        ),
        (
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
        ),
    ),
}


def _pullback(label: str) -> ChartedManifold:
    if label in _PULLBACK_FLAT4:
        kind = _FLAT_DATA[_FLAT_BY_KIND[label]][0]
        j_rows, g_rows = _PULLBACK_FLAT4[label]
    else:
        kind, j_rows, g_rows = _FLAT_DATA[_FLAT_BY_KIND[label]]
    j0 = np.array(j_rows)
    g0 = np.array(g_rows)
    eps = kind.epsilon
    dim = len(j0)

    def fields(coords, _j0=j0, _g0=g0, _eps=eps):
        dphi = _phi_jacobian(coords)
        j = inv(dphi) @ _j0 @ dphi
        return 0.5 * (_g0 + _eps * (j.T @ _g0 @ j)), j

    return ChartedManifold(
        name=f"pullback-integrable-{label}",
        kind=kind,
        dim=dim,
        domain=Box((-0.9,) * dim, (0.9,) * dim),
        fields=fields,
    )


# ---------------------------------------------------------------------------
# Random entries: seeded conjugation and polarization.
# ---------------------------------------------------------------------------

def _poly_matrix(coeffs: np.ndarray, x):
    """Evaluate the 2x2 matrix Id + 0.1 * P(x), P quadratic with coeffs.

    coeffs[i][j][m] multiplies the m-th of 1, x1, x2, x1^2, x1*x2, x2^2.
    """
    x1, x2 = x[0], x[1]
    mono = (x1, x2, x1 * x1, x1 * x2, x2 * x2)

    def poly(c):
        acc = c[0]
        for cm, xm in zip(c[1:], mono):
            acc = acc + cm * xm
        return acc

    return np.eye(2) + 0.1 * matrix([[poly(c) for c in row] for row in coeffs])


def _random_structure(coeffs, j0, x):
    a = _poly_matrix(coeffs, x)
    return a @ j0 @ inv(a)


def _random(label: str, seed: int) -> ChartedManifold:
    kind, j_rows, _ = _FLAT_DATA[_FLAT_BY_KIND[label]]
    j0 = np.array(j_rows)
    eps = kind.epsilon
    box = Box((-0.6, -0.6), (0.6, 0.6))
    rng = np.random.default_rng([seed, KINDS.index(kind) + 1, 29])
    b = rng.uniform(-1.0, 1.0, (2, 2))
    h = b.T @ b + np.eye(2)

    grid_axis = np.linspace(-0.6, 0.6, 5)
    grid = [(float(gx), float(gy)) for gx in grid_axis for gy in grid_axis]

    coeffs = None
    for _ in range(RANDOM_RETRIES):
        candidate = rng.uniform(-1.0, 1.0, (2, 2, 6))
        if _random_candidate_ok(candidate, j0, h, eps, grid):
            coeffs = candidate
            break
    if coeffs is None:
        raise DegenerateConstruction(
            f"random-{label}-{seed}: no non-degenerate draw in "
            f"{RANDOM_RETRIES} attempts"
        )

    def fields(coords, _c=coeffs, _j0=j0, _h=h, _eps=eps):
        j = _random_structure(_c, _j0, coords)
        return _h + _eps * (j.T @ _h @ j), j

    return ChartedManifold(
        name=f"random-{label}-{seed}",
        kind=kind,
        dim=2,
        domain=box,
        fields=fields,
    )


def _random_candidate_ok(coeffs, j0, h, eps, grid) -> bool:
    """Whether A and g stay away from singular at every grid point.

    The grid points are evaluated at once, as a stack of matrices.  A is
    tested before it is inverted, since ``inv`` raises on a singular matrix.
    """
    x = np.asarray(grid, dtype=float).T
    if (np.abs(np.linalg.det(_poly_matrix(coeffs, x))) < 0.25).any():
        return False
    j = _random_structure(coeffs, j0, x)
    g = h + eps * (np.swapaxes(j, -1, -2) @ h @ j)
    return not (np.abs(np.linalg.det(g)) < 1e-4).any()
