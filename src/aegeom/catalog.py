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

All component functions are rational in the coordinates, so they evaluate
on ``Dual`` scalars without any special cases.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

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
)
from .octonion import cross

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

_FLAT_BY_KIND = {
    "hermitian": "flat-kahler",
    "product-riemannian": "flat-product-riemannian",
    "norden": "flat-anti-kahler",
    "para-hermitian": "flat-para-kahler",
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


def _constant_matrix_fn(rows) -> Callable:
    data = [list(r) for r in rows]

    def fn(coords, _data=data):
        return [list(r) for r in _data]

    return fn


def _flat(name: str) -> ChartedManifold:
    kind, j_rows, g_rows = _FLAT_DATA[name]
    box = Box((-1.5, -1.5), (1.5, 1.5))
    return ChartedManifold(
        name=name,
        kind=kind,
        dim=2,
        domain=box,
        metric=_constant_matrix_fn(g_rows),
        structure=_constant_matrix_fn(j_rows),
    )


# ---------------------------------------------------------------------------
# Six-sphere with the octonion cross-product structure.
# ---------------------------------------------------------------------------


def _s6_chart(u: Sequence):
    """Sphere point and chart Jacobian for the stereographic chart.

    The chart sends u in R^6 to ((1-s)/(1+s), u/(1+s)) with s = |u|^2/4,
    landing on the unit sphere in the imaginary octonions and missing only
    the pole -e1.  Returns (p, d, den) where p has 7 components, d[b][j] is
    the Jacobian d p_b / d u_j, and den = 1 + s.
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
    p = [(1.0 - s) / den]
    for a in range(6):
        p.append(u[a] / den)
    d = [[-u[j] / den2 for j in range(6)]]
    for a in range(6):
        row = []
        for j in range(6):
            entry = -(u[a] * u[j]) / (2.0 * den2)
            if a == j:
                entry = entry + 1.0 / den
            row.append(entry)
        d.append(row)
    return p, d, den


def _s6_metric(u: Sequence):
    _, d, _ = _s6_chart(u)
    g = [[None] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i, 6):
            acc = d[0][i] * d[0][j]
            for b in range(1, 7):
                acc = acc + d[b][i] * d[b][j]
            g[i][j] = acc
            g[j][i] = acc
    return g


def _s6_structure(u: Sequence):
    p, d, den = _s6_chart(u)
    den2 = den * den
    # Column j of the Jacobian is tangent at p; rotate it by the cross
    # product with p, then pull back through the chart.  The chart is
    # conformal with factor 1/den^2, so (D^T D)^{-1} = den^2 * Id and the
    # pullback is den^2 * D^T w.
    cols = []
    for j in range(6):
        x = [d[b][j] for b in range(7)]
        w = cross(p, x)
        col = []
        for i in range(6):
            acc = d[0][i] * w[0]
            for b in range(1, 7):
                acc = acc + d[b][i] * w[b]
            col.append(den2 * acc)
        cols.append(col)
    return [[cols[j][i] for j in range(6)] for i in range(6)]


def _six_sphere() -> ChartedManifold:
    box = Box((-0.8,) * 6, (0.8,) * 6)
    return ChartedManifold(
        name="s6-nearly-kahler",
        kind=HERMITIAN,
        dim=6,
        domain=box,
        metric=_s6_metric,
        structure=_s6_structure,
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
        return [
            [1.0 + 0.1 * x2, 0.1 * (x1 + 2.0 * x2)],
            [0.1 * (2.0 * x1 - x2), 1.0 - 0.1 * x1],
        ]
    x1, x2, x3, x4 = x[0], x[1], x[2], x[3]
    rows = [
        [0.0, x3, x2, 2.0 * x4],
        [x4, 0.0, 2.0 * x3, x1],
        [x2, x1 - x4, 0.0, -x2],
        [x3, -2.0 * x2, x1, 0.0],
    ]
    return [
        [0.1 * rows[i][j] + (1.0 if i == j else 0.0) for j in range(4)]
        for i in range(4)
    ]


def _inv2(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return [
        [a[1][1] / det, -a[0][1] / det],
        [-a[1][0] / det, a[0][0] / det],
    ]


def _inv_small(a):
    """Gauss-Jordan inverse without pivoting, for near-identity matrices.

    Entries may be floats or dual scalars; the diagonal must stay away
    from zero, which holds for every matrix this module inverts.
    """
    n = len(a)
    work = [list(row) for row in a]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        scale = 1.0 / work[col][col]
        for j in range(n):
            work[col][j] = work[col][j] * scale
            inv[col][j] = inv[col][j] * scale
        for row in range(n):
            if row == col:
                continue
            factor = work[row][col]
            for j in range(n):
                work[row][j] = work[row][j] - factor * work[col][j]
                inv[row][j] = inv[row][j] - factor * inv[col][j]
    return inv


def _mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k_range = range(len(b))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for k in k_range:
                if k:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _pullback_structure(x, j0):
    dphi = _phi_jacobian(x)
    return _mat_mul(_inv_small(dphi), _mat_mul(j0, dphi))


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
    j0 = [list(r) for r in j_rows]
    g0 = [list(r) for r in g_rows]
    eps = kind.epsilon
    dim = len(j0)

    def structure_fn(coords, _j0=j0):
        return _pullback_structure(coords, _j0)

    def metric_fn(coords, _j0=j0, _g0=g0, _eps=eps, _dim=dim):
        j = _pullback_structure(coords, _j0)
        pol = _mat_mul(_transpose(j), _mat_mul(_g0, j))
        return [
            [0.5 * (_g0[i][k] + _eps * pol[i][k]) for k in range(_dim)]
            for i in range(_dim)
        ]

    return ChartedManifold(
        name=f"pullback-integrable-{label}",
        kind=kind,
        dim=dim,
        domain=Box((-0.9,) * dim, (0.9,) * dim),
        metric=metric_fn,
        structure=structure_fn,
    )


# ---------------------------------------------------------------------------
# Random entries: seeded conjugation and polarization.
# ---------------------------------------------------------------------------

_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _poly_matrix(coeffs: np.ndarray, x):
    """Evaluate the 2x2 matrix Id + 0.1 * P(x), P quadratic with coeffs."""
    x1, x2 = x[0], x[1]
    mono = [1.0, x1, x2, x1 * x1, x1 * x2, x2 * x2]
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = coeffs[i][j][0] * mono[0]
            for m in range(1, 6):
                acc = acc + coeffs[i][j][m] * mono[m]
            acc = 0.1 * acc
            if i == j:
                acc = acc + 1.0
            row.append(acc)
        out.append(row)
    return out


def _random_structure(coeffs, j0, x):
    a = _poly_matrix(coeffs, x)
    return _mat_mul(a, _mat_mul(j0, _inv2(a)))


def _random(label: str, seed: int) -> ChartedManifold:
    kind, j_rows, _ = _FLAT_DATA[_FLAT_BY_KIND[label]]
    j0 = [list(r) for r in j_rows]
    eps = kind.epsilon
    box = Box((-0.6, -0.6), (0.6, 0.6))
    rng = np.random.default_rng([seed, _kind_tag(kind), 29])
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

    def structure_fn(coords, _c=coeffs, _j0=j0):
        return _random_structure(_c, _j0, coords)

    def metric_fn(coords, _c=coeffs, _j0=j0, _h=h, _eps=eps):
        j = _random_structure(_c, _j0, coords)
        pol = _mat_mul(_transpose(j), _mat_mul(_h.tolist(), j))
        return [
            [_h[i][k] + _eps * pol[i][k] for k in range(2)] for i in range(2)
        ]

    return ChartedManifold(
        name=f"random-{label}-{seed}",
        kind=kind,
        dim=2,
        domain=box,
        metric=metric_fn,
        structure=structure_fn,
    )


def _random_candidate_ok(coeffs, j0, h, eps, grid) -> bool:
    """Whether A and g stay away from singular at every grid point.

    The grid points are evaluated at once, each entry as an array over them.
    """
    x = np.asarray(grid, dtype=float).T
    with np.errstate(all="ignore"):
        a = np.moveaxis(np.array(_poly_matrix(coeffs, x)), -1, 0)
        j = np.moveaxis(np.array(_random_structure(coeffs, j0, x)), -1, 0)
        g = h + eps * (np.swapaxes(j, 1, 2) @ h @ j)
        det_a, det_g = np.linalg.det(a), np.linalg.det(g)
    return not (np.abs(det_a) < 0.25).any() and not (np.abs(det_g) < 1e-4).any()


def _kind_tag(kind: StructureKind) -> int:
    """Small stable integer tag for seeding, one per structure kind."""
    return {(-1, 1): 1, (1, 1): 2, (-1, -1): 3, (1, -1): 4}[
        (kind.alpha, kind.epsilon)
    ]
