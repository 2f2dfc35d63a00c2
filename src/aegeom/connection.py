"""Connections and derived tensors over a stack of sample points.

Every function takes a stack of points (N, d), or one point (d,) as a stack
of one, and every array carries the points on its leading axis.  Index
conventions after the point axis, with d the manifold dimension:

* ``gamma[k, i, j]``   coefficient of the covariant derivative in direction
  i of the j-th coordinate field, output slot k (symmetric in i, j for the
  metric connection);
* ``nabla_j[k, i, j]`` derivative direction k first, then output i and
  argument j of the differentiated structure tensor;
* ``torsion[i, j, k]`` and ``nijenhuis[i, j, k]`` output slot i first, then
  the two (antisymmetric) argument slots.

The canonical connection adds the correction ((-alpha)/2) (nabla_i J) J to
the metric connection; it makes both the metric and the structure parallel,
which is verified at runtime together with the equality of the alternative
torsion and Nijenhuis formulas.  These identities assume the structure
axioms, so a checked pass checks the axioms on its whole stack before any
cross-check and raises ``InvalidStructure`` where one fails; past that, a
disagreement can only come from an implementation bug.  The first failing
check names the manifold and its own first failing sample point.
``derived_tensors`` is the checked pass, ``identity_residuals`` checks the
axioms only, and ``christoffel`` none, though it too checks both fields.

Contractions are stacked matrix products of each point's matrices, so a
point gets the numbers it would get on its own.  (nabla J) J, J (nabla J)
and J^T into the first slot of nabla J and of dJ are formed once per pass
and read in other index orders as transposed views; only equal sums share
a product, so each cross-check still compares two routes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .algebra import sampled_condition
from .errors import (
    FormulaMismatch,
    InvalidStructure,
    NijenhuisFormulaMismatch,
    NonFiniteField,
    TorsionFormulaMismatch,
)
from .manifold import (
    VALIDATION_TOL,
    ChartedManifold,
    _as_tuple,
    axiom_residuals,
    eval_with_derivatives,
    inf_norm,
    metric_abs_det,
    worst_over_sample,
)

PARALLEL_TOL = 1e-8
TORSION_AGREEMENT_TOL = 1e-9
NIJENHUIS_AGREEMENT_TOL = 1e-8


class _Frame:
    """Raw arrays of a stack of sample points, computed in one pass."""

    __slots__ = ("name", "kind", "points", "g", "dg", "j", "dj", "gamma", "nabla_j")

    def __init__(self, m: ChartedManifold, points) -> None:
        self.name = m.name
        self.kind = m.kind
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.g, self.dg, self.j, self.dj = eval_with_derivatives(m, self.points)
        metric_abs_det(m, self.points, self.g)
        dg = self.dg
        rhs = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg
        flat = rhs.reshape(len(dg), m.dim, -1)
        self.gamma = 0.5 * np.linalg.solve(self.g, flat).reshape(rhs.shape)
        self.nabla_j = _covariant_structure(self.dj, self.gamma, self.j)


def _covariant_structure(dj, gamma, j):
    """nabla[n, k, i, j] for any connection coefficients gamma."""
    gt = gamma.transpose(0, 2, 1, 3)  # gt[n, k] is the matrix of nabla_k
    return dj + gt @ j[:, None] - j[:, None] @ gt


def _covariant_metric(dg, gamma, g):
    """(nabla_k g)_ij at each point, for any gamma and any 2-form g."""
    gt = gamma.transpose(0, 2, 1, 3)
    return dg - gt.swapaxes(2, 3) @ g[:, None] - g[:, None] @ gt


def _j_left(j, t):
    """J t[k] at each point, for a stack t[n, k] of matrices."""
    return j[:, None] @ t


def _j_first(j, t):
    """out[n, x, i, k] = sum_a J[a, x] t[n, a, i, k]: J^T into t's first slot."""
    return (j.transpose(0, 2, 1) @ t.reshape(*j.shape[:2], -1)).reshape(t.shape)


def _skew(x):
    """out[n, i, j, k] = x[n, j, i, k] - x[n, k, i, j]."""
    return x.transpose(0, 2, 1, 3) - x.transpose(0, 2, 3, 1)


# Each runtime cross-check is (error type, tolerance, message, residual
# stacks); the message is formatted with every stack's residual at the
# failing point, and with ``point``.
_Check = Tuple[type, float, str, Tuple[np.ndarray, ...]]


def _require(frame: _Frame, checks: List[_Check]) -> None:
    """Raise for the first failing check: each structure axiom, then ``checks``.

    Each check runs over the whole stack in list order, so a failing axiom
    is reported before any cross-check.  A residual fails unless it is
    finite and below the check's tolerance.  Only a failing check is located
    point by point, at its own first failing sample point; a cross-check
    with a residual that is not finite raises ``NonFiniteField`` at its
    first such point instead, since an overflow is no disagreement.
    """
    axioms = axiom_residuals(frame.kind, frame.g, frame.j)
    message = "{} axiom fails by {{0:.3e}} at {{point}}"
    checks = [
        (InvalidStructure, VALIDATION_TOL, message.format(key), (r,))
        for key, r in axioms.items()
    ] + checks
    for error, tol, message, stacks in checks:
        if all(inf_norm(r) < tol for r in stacks):
            continue
        worst = np.stack([np.abs(r).reshape(len(r), -1).max(axis=1) for r in stacks])
        failing = ~(worst < tol).all(axis=0)
        finite = np.isfinite(worst).all(axis=0)
        if error is not InvalidStructure and not finite.all():
            error, failing = NonFiniteField, ~finite
        n = int(np.argmax(failing))
        point = _as_tuple(frame.points[n])
        raise error(f"{frame.name}: {message.format(*worst[:, n], point=point)}")


def christoffel(m: ChartedManifold, points) -> np.ndarray:
    """Coefficients gamma[n, k, i, j] of the metric (torsion-free) connection.

    Checks no structure axiom, but evaluates both fields first, so it raises
    ``PointOutsideDomain``, ``NonFiniteField`` (for the metric or the
    structure) and ``NearSingularMetric``.
    """
    return _Frame(m, points).gamma


def derived_tensors(m: ChartedManifold, points) -> Dict[str, np.ndarray]:
    """Every derived stack of the checked pass, after every check has passed.

    Keys ``g``, ``gamma0`` (the canonical connection), ``nabla_j``,
    ``torsion``, ``torsion_shift`` and ``nijenhuis``.  The torsion is
    computed from ``gamma0`` and in two closed forms, the Nijenhuis tensor
    from covariant derivatives and from brackets; the axioms and every
    runtime cross-check run first and raise where one fails.
    """
    frame = _Frame(m, points)
    g, dg, j, dj, nj = frame.g, frame.dg, frame.j, frame.dj, frame.nabla_j
    alpha = frame.kind.alpha
    p, q = nj @ j[:, None], _j_left(j, nj)
    gamma0 = frame.gamma + (-alpha / 2.0) * p.transpose(0, 2, 1, 3)
    torsion = gamma0 - gamma0.transpose(0, 1, 3, 2)
    t_shifted = (-alpha / 2.0) * _skew(p)
    t_rotated = (alpha / 2.0) * _skew(q)
    n_deriv = _skew(p + _j_first(j, nj))
    n_bracket = _skew(_j_first(j, dj) - _j_left(j, dj))
    shift = j.transpose(0, 2, 1)[:, None] @ torsion @ j[:, None] + alpha * torsion
    # only torsion - t_rotated checks p = (nabla J) J: in torsion - t_shifted
    # p cancels term by term, which leaves a check that frame.gamma is symmetric
    spread = np.stack([torsion - t_shifted, torsion - t_rotated], axis=1)
    parallel = (_covariant_structure(dj, gamma0, j), _covariant_metric(dg, gamma0, g))
    checks = [
        (
            FormulaMismatch,
            PARALLEL_TOL,
            "(nabla J) J + J (nabla J) residual {0:.3e} at {point}",
            (p + q,),
        ),
        (
            TorsionFormulaMismatch,
            TORSION_AGREEMENT_TOL,
            "torsion formulas disagree by {0:.3e} at {point}",
            (spread,),
        ),
        (
            FormulaMismatch,
            PARALLEL_TOL,
            "canonical connection not parallel at {point}: "
            "structure {0:.3e}, metric {1:.3e}",
            parallel,
        ),
        (
            NijenhuisFormulaMismatch,
            NIJENHUIS_AGREEMENT_TOL,
            "Nijenhuis routes disagree by {0:.3e} at {point}",
            (n_deriv - n_bracket,),
        ),
        (
            NijenhuisFormulaMismatch,
            NIJENHUIS_AGREEMENT_TOL,
            "torsion relation residual {0:.3e} at {point}",
            (shift + 0.5 * n_deriv,),
        ),
    ]
    _require(frame, checks)
    return {
        "g": g,
        "gamma0": gamma0,
        "nabla_j": nj,
        "torsion": torsion,
        "torsion_shift": shift,
        "nijenhuis": n_deriv,
    }


def identity_residuals(
    m: ChartedManifold,
    points,
    triples: np.ndarray,
) -> Dict[str, float]:
    """Residuals of the built-in identity suite, worst over the points.

    The identities assume the structure axioms, which are checked first as
    in ``derived_tensors``; the runtime cross-checks are not run.  A
    residual that is not finite raises ``NonFiniteField`` at its first such
    point.

    Component-norm keys:

    * ``pairing_swap``: moving J across the metric pairing costs the factor
      alpha*epsilon;
    * ``anticommute``: (nabla J) J = -J (nabla J);
    * ``pairing_symmetry``: swapping the two non-derivative arguments of
      g((nabla J) ., .) costs alpha*epsilon;
    * ``pairing_j_shift``: moving J from argument to pairing slot costs
      -alpha*epsilon;
    * ``twin_codazzi_match``: the twin form g(J., .) has Codazzi defect
      equal to the paired Codazzi defect of J;
    * ``nabla_g``: the metric connection leaves g parallel.  Its skew part
      in the first two slots, ``codazzi_nabla_g``, is at most 2 |``nabla_g``|
      and cannot fail while ``nabla_g`` holds below half the tolerance; it
      stays as the metric-side Codazzi residual the README names;
    * for split-sign kinds also ``fundamental_form_antisymmetry`` and
      ``fundamental_form_nearly_match`` for the form g(J., .).

    Each residual tensor is also contracted with every probe triple
    (X, Y, Z) of ``triples`` (see ``vector_triples``), and those maxima are
    reported under the same keys with suffix ``_on_vectors``.
    """
    return worst_over_sample(points, lambda block: _identities(m, block, triples))


def vector_triples(seed: int, n_triples: int, dim: int) -> np.ndarray:
    """Probe triples (n_triples, 3, dim) with infinity norm in [0.1, 1].

    Deterministic in the seed, and fewer triples are a prefix of more.
    """
    if n_triples < 1:
        raise ValueError("n_triples must be at least 1")
    raw = np.random.default_rng([seed, 13]).uniform(-1.0, 1.0, (n_triples, 3, dim))
    targets = 0.1 + 0.9 * np.random.default_rng([seed, 17]).random((n_triples, 3))
    norms = np.max(np.abs(raw), axis=2)
    norms[norms == 0.0] = 1.0
    return raw * (targets / norms)[:, :, None]


def _identities(m: ChartedManifold, points, triples) -> Dict[str, float]:
    frame = _Frame(m, points)
    tensors = _identity_tensors(frame)
    stacks = dict(tensors)
    # all triples at once: rows x (x) y and x (x) y (x) z, one per triple
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    yz = y[:, :, None] * z[:, None, :]
    probes = {
        3: (x[:, :, None] * y[:, None, :]).reshape(len(triples), -1),
        4: (x[:, :, None, None] * yz[:, None]).reshape(len(triples), -1),
    }
    for key, arr in tensors.items():
        stacks[key + "_on_vectors"] = arr.reshape(len(arr), -1) @ probes[arr.ndim].T
    out = {key: inf_norm(arr) for key, arr in stacks.items()}
    message = "identity {} residual {{0:.3e}} at {{point}}"
    overflow = [
        (NonFiniteField, np.inf, message.format(key), (stacks[key],))
        for key, value in out.items()
        if value == np.inf
    ]
    if overflow:
        _require(frame, overflow)
    return out


def _identity_tensors(frame: _Frame) -> Dict[str, np.ndarray]:
    """Residual stack of each identity, after the structure axioms pass."""
    _require(frame, [])
    g, dg, j, dj = frame.g, frame.dg, frame.j, frame.dj
    nj, gamma = frame.nabla_j, frame.gamma
    ae = frame.kind.product
    gl, jt, njt = g[:, None], j.transpose(0, 2, 1), nj.swapaxes(2, 3)
    p = nj @ j[:, None]

    tensors: Dict[str, np.ndarray] = {}

    twin, gj = jt @ g, g @ j
    tensors["pairing_swap"] = twin - ae * gj

    tensors["anticommute"] = p + _j_left(j, nj)

    paired = njt @ gl
    tensors["pairing_symmetry"] = paired - ae * paired.swapaxes(2, 3)

    tensors["pairing_j_shift"] = p.swapaxes(2, 3) @ gl + ae * (njt @ gj[:, None])

    dtwin = dj.swapaxes(2, 3) @ gl + jt[:, None] @ dg
    cov_twin = _covariant_metric(dtwin, gamma, twin)
    twin_defect = cov_twin - cov_twin.transpose(0, 2, 1, 3)
    codazzi_j = sampled_condition(nj, ae, "codazzi")
    tensors["twin_codazzi_match"] = twin_defect - codazzi_j.swapaxes(2, 3) @ gl

    nabla_g = _covariant_metric(dg, gamma, g)
    tensors["nabla_g"] = nabla_g
    tensors["codazzi_nabla_g"] = nabla_g - nabla_g.transpose(0, 2, 1, 3)

    if ae == -1:
        tensors["fundamental_form_antisymmetry"] = twin + twin.transpose(0, 2, 1)
        nearly_form = cov_twin + cov_twin.transpose(0, 2, 1, 3)
        paired_nearly = sampled_condition(nj, ae, "nearly").swapaxes(2, 3) @ gl
        tensors["fundamental_form_nearly_match"] = nearly_form - paired_nearly
    return tensors
