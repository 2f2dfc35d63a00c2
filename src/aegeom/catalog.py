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
formulas they stand for, with ``matrix``, ``@``, ``.mT`` and ``inv`` from
``aegeom.dual``.  The same function takes one point of float coordinates or
a plain stack of coordinate arrays, returning plain arrays, or ``Dual``
coordinates carrying a stack of points, returning matrix ``Dual`` values.
The flat entries return one read-only constant pair.
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
    StructureKind,
    standard_pair,
)
from .octonion import cross_matrix

RANDOM_RETRIES = 20

_FLAT_KINDS = {
    "flat-kahler": HERMITIAN,
    "flat-product-riemannian": PRODUCT_RIEMANNIAN,
    "flat-anti-kahler": NORDEN,
    "flat-para-kahler": PARA_HERMITIAN,
}


def _standard_pair(kind: StructureKind, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(metric, structure) of ``standard_pair(kind, n)``, read-only floats."""
    pair = tuple(data.astype(float) for data in standard_pair(kind, n))
    for data in pair:
        data.setflags(write=False)
    return pair


# The constant pairs by kind label: the surface pair of the flat and random
# entries, and the pair each pullback entry conjugates.  The latter is four
# dimensional when alpha*epsilon = -1, the paired form being antisymmetric.
_SURFACE_PAIRS = {kind.label: _standard_pair(kind, 1) for kind in KINDS}
_PULLBACK_PAIRS = {
    kind.label: _standard_pair(kind, 2 if kind.product == -1 else 1)
    for kind in KINDS
}


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
    if name in _FLAT_KINDS:
        return _flat(name)
    if name == "s6-nearly-kahler":
        return _six_sphere()
    if name.startswith("pullback-integrable-"):
        label = name[len("pullback-integrable-") :]
        if label in _SURFACE_PAIRS:
            return _pullback(label)
    if name.startswith("random-"):
        rest = name[len("random-") :]
        label, _, seed_text = rest.rpartition("-")
        # only the canonical decimal spelling names an entry: int() also
        # reads "013", "+5", "1_2" and "١٢", and raises past its digit limit
        try:
            canonical = str(int(seed_text)) == seed_text
        except ValueError:
            canonical = False
        if canonical and label in _SURFACE_PAIRS:
            return _random(label, int(seed_text))
    raise UnknownCatalogName(
        f"no catalog entry named {name!r}; known entries: "
        + ", ".join(standard_names())
        + ", random-<kind>-<seed>"
    )


def _flat(name: str) -> ChartedManifold:
    kind = _FLAT_KINDS[name]
    pair = _SURFACE_PAIRS[kind.label]
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
    return d.mT @ d, d.mT @ cross_matrix([den2 * x for x in p]) @ d


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


def _pullback(label: str) -> ChartedManifold:
    kind = StructureKind.from_name(label)
    g0, j0 = _PULLBACK_PAIRS[label]
    eps = kind.epsilon
    dim = len(j0)

    def fields(coords, _j0=j0, _g0=g0, _eps=eps):
        dphi = _phi_jacobian(coords)
        j = inv(dphi) @ _j0 @ dphi
        return 0.5 * (_g0 + _eps * (j.mT @ _g0 @ j)), j

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


def _random(label: str, seed: int) -> ChartedManifold:
    kind = StructureKind.from_name(label)
    j0 = _SURFACE_PAIRS[label][1]
    eps = kind.epsilon
    box = Box((-0.6, -0.6), (0.6, 0.6))
    rng = np.random.default_rng([seed, KINDS.index(kind) + 1, 29])
    b = rng.uniform(-1.0, 1.0, (2, 2))
    h = b.mT @ b + np.eye(2)

    # a draw is kept when A and g stay away from singular on a 5x5 grid,
    # sent through the fields as a plain stack; A is tested first, since
    # the fields invert it and ``inv`` raises on a singular matrix
    grid_axis = np.linspace(-0.6, 0.6, 5)
    grid = [np.repeat(grid_axis, 5), np.tile(grid_axis, 5)]
    for _ in range(RANDOM_RETRIES):
        coeffs = rng.uniform(-1.0, 1.0, (2, 2, 6))

        def fields(coords, _c=coeffs, _j0=j0, _h=h, _eps=eps):
            a = _poly_matrix(_c, coords)
            j = a @ _j0 @ inv(a)
            return _h + _eps * (j.mT @ _h @ j), j

        if (np.abs(np.linalg.det(_poly_matrix(coeffs, grid))) < 0.25).any():
            continue
        if not (np.abs(np.linalg.det(fields(grid)[0])) < 1e-4).any():
            break
    else:
        raise DegenerateConstruction(
            f"random-{label}-{seed}: no non-degenerate draw in "
            f"{RANDOM_RETRIES} attempts"
        )

    return ChartedManifold(
        name=f"random-{label}-{seed}",
        kind=kind,
        dim=2,
        domain=box,
        fields=fields,
    )
