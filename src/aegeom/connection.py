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
axioms, so every checked pass first checks the axioms and raises
``InvalidStructure`` where they fail; past that, any disagreement can only
come from an implementation bug.  Either names the manifold and the first
failing sample point.  ``derived_tensors`` is the checked pass,
``identity_residuals`` checks the axioms only, and ``christoffel``, which
needs no structure, checks nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    FormulaMismatch,
    InvalidStructure,
    NijenhuisFormulaMismatch,
    TorsionFormulaMismatch,
)
from .manifold import (
    VALIDATION_TOL,
    ChartedManifold,
    _as_tuple,
    axiom_residuals,
    eval_with_derivatives,
    metric_abs_det,
    worst_over_sample,
)
from .tensors import inf_norm

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
        n, d = self.g.shape[:2]
        dg = self.dg
        rhs = np.einsum("nilj->nlij", dg) + np.einsum("njil->nlij", dg) - dg
        self.gamma = 0.5 * np.linalg.solve(
            self.g, rhs.reshape(n, d, d * d)
        ).reshape(n, d, d, d)
        self.nabla_j = _covariant_structure(self.dj, self.gamma, self.j)

    def point(self, n: int) -> Tuple[float, ...]:
        return _as_tuple(self.points[n])


def _covariant_structure(dj, gamma, j):
    """nabla[n, k, i, j] for any connection coefficients gamma."""
    return (
        dj
        + np.einsum("nika,naj->nkij", gamma, j)
        - np.einsum("nakj,nia->nkij", gamma, j)
    )


def _covariant_metric(dg, gamma, g):
    """(nabla_k g)_ij at each point, for any gamma and any 2-form g."""
    return (
        dg
        - np.einsum("naki,naj->nkij", gamma, g)
        - np.einsum("nakj,nia->nkij", gamma, g)
    )


def _anticommutator(nj, j):
    return np.einsum("nkia,naj->nkij", nj, j) + np.einsum("nia,nkaj->nkij", j, nj)


# Each runtime cross-check is (error type, tolerance, message, residual
# stacks); the message is formatted with every stack's residual at the
# failing point, and with ``point``.
_Check = Tuple[type, float, str, Tuple[np.ndarray, ...]]


def _require(frame: _Frame, checks: List[_Check]) -> None:
    """Raise for the first sample point that fails an axiom or a check.

    At that point the first failing structure axiom is reported, or else
    the first failing check in list order, as if every check had run point
    by point in sample order.
    """
    axioms = axiom_residuals(frame.kind, frame.g, frame.j)
    message = "{} axiom fails by {{0:.3e}} at {{point}}"
    checks = [
        (InvalidStructure, VALIDATION_TOL, message.format(key), (r,))
        for key, r in axioms.items()
    ] + checks
    # locating the point is needed only when something fails
    if all(inf_norm(r) < tol for _, tol, _, stacks in checks for r in stacks):
        return
    per_point = [
        np.stack([np.abs(r).reshape(len(r), -1).max(axis=1) for r in stacks])
        for _, _, _, stacks in checks
    ]
    failing = np.stack(
        [(p >= tol).any(axis=0) for p, (_, tol, _, _) in zip(per_point, checks)],
        axis=1,
    )
    if failing.any():
        n, c = np.argwhere(failing)[0]
        error, _, message, _ = checks[c]
        detail = message.format(*per_point[c][:, n], point=frame.point(n))
        raise error(f"{frame.name}: {detail}")


def christoffel(m: ChartedManifold, points) -> np.ndarray:
    """Coefficients gamma[n, k, i, j] of the metric (torsion-free) connection.

    Checks nothing about the structure: the metric connection needs only g.
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
    gamma0 = frame.gamma + (-alpha / 2.0) * np.einsum("nika,naj->nkij", nj, j)
    torsion = gamma0 - np.einsum("nikj->nijk", gamma0)
    t_shifted = (-alpha / 2.0) * (
        np.einsum("njia,nak->nijk", nj, j) - np.einsum("nkia,naj->nijk", nj, j)
    )
    t_rotated = (alpha / 2.0) * (
        np.einsum("nia,njak->nijk", j, nj) - np.einsum("nia,nkaj->nijk", j, nj)
    )
    n_deriv = (
        np.einsum("njia,nak->nijk", nj, j)
        + np.einsum("naj,naik->nijk", j, nj)
        - np.einsum("nkia,naj->nijk", nj, j)
        - np.einsum("nak,naij->nijk", j, nj)
    )
    n_bracket = (
        np.einsum("naj,naik->nijk", j, dj)
        - np.einsum("nak,naij->nijk", j, dj)
        + np.einsum("nib,nkbj->nijk", j, dj)
        - np.einsum("nib,njbk->nijk", j, dj)
    )
    shift = np.einsum("naj,nbk,niab->nijk", j, j, torsion) + alpha * torsion
    spread = np.stack([torsion - t_shifted, torsion - t_rotated], axis=1)
    parallel = (_covariant_structure(dj, gamma0, j), _covariant_metric(dg, gamma0, g))
    nijenhuis_error, tol = NijenhuisFormulaMismatch, NIJENHUIS_AGREEMENT_TOL
    checks = [
        (
            FormulaMismatch,
            PARALLEL_TOL,
            "(nabla J) J + J (nabla J) residual {0:.3e} at {point}",
            (_anticommutator(nj, j),),
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
            nijenhuis_error,
            tol,
            "Nijenhuis routes disagree by {0:.3e} at {point}",
            (n_deriv - n_bracket,),
        ),
        (
            nijenhuis_error,
            tol,
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
    triples: Optional[np.ndarray] = None,
) -> Dict[str, float]:
    """Residuals of the built-in identity suite, worst over the points.

    The identities assume the structure axioms, which are checked first as
    in ``derived_tensors``; the runtime cross-checks are not run.

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
    * ``nabla_g`` and ``codazzi_nabla_g``: the metric connection leaves g
      parallel;
    * for split-sign kinds also ``fundamental_form_antisymmetry`` and
      ``fundamental_form_nearly_match`` for the form g(J., .).

    When ``triples`` is given, each residual tensor is additionally
    contracted with every sampled (X, Y, Z) and the maxima are reported
    under the same keys with suffix ``_on_vectors``.
    """
    return worst_over_sample(points, lambda block: _identities(m, block, triples))


def _identities(m: ChartedManifold, points, triples) -> Dict[str, float]:
    frame = _Frame(m, points)
    _require(frame, [])
    g, dg, j, dj = frame.g, frame.dg, frame.j, frame.dj
    nj, gamma = frame.nabla_j, frame.gamma
    ae = frame.kind.product

    tensors: Dict[str, np.ndarray] = {}

    twin = np.einsum("nai,naj->nij", j, g)
    tensors["pairing_swap"] = twin - ae * np.einsum("nib,nbj->nij", g, j)

    tensors["anticommute"] = _anticommutator(nj, j)

    paired = np.einsum("naj,nkai->nkij", g, nj)
    tensors["pairing_symmetry"] = paired - ae * np.einsum("nkij->nkji", paired)

    tensors["pairing_j_shift"] = np.einsum(
        "naj,nkab,nbi->nkij", g, nj, j
    ) + ae * np.einsum("nab,nbj,nkai->nkij", g, j, nj)

    dtwin = np.einsum("nkai,naj->nkij", dj, g) + np.einsum(
        "nai,nkaj->nkij", j, dg
    )
    cov_twin = _covariant_metric(dtwin, gamma, twin)
    twin_defect = cov_twin - np.einsum("nikj->nkij", cov_twin)
    codazzi_j = nj - np.einsum("njik->nkij", nj)
    paired_defect = np.einsum("naj,nkai->nkij", g, codazzi_j)
    tensors["twin_codazzi_match"] = twin_defect - paired_defect

    nabla_g = _covariant_metric(dg, gamma, g)
    tensors["nabla_g"] = nabla_g
    tensors["codazzi_nabla_g"] = nabla_g - np.einsum("nikj->nkij", nabla_g)

    if ae == -1:
        tensors["fundamental_form_antisymmetry"] = twin + twin.transpose(0, 2, 1)
        nearly_form = cov_twin + np.einsum("nikj->nkij", cov_twin)
        nearly_j = nj + np.einsum("njik->nkij", nj)
        tensors["fundamental_form_nearly_match"] = nearly_form - np.einsum(
            "naj,nkai->nkij", g, nearly_j
        )

    out = {key: inf_norm(arr) for key, arr in tensors.items()}
    if triples is not None:
        # all triples at once: rows x (x) y and x (x) y (x) z, one per triple
        x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
        yz = np.einsum("ti,tj->tij", y, z)
        probes = {
            3: np.einsum("ti,tj->tij", x, y).reshape(len(triples), -1),
            4: np.einsum("tk,tij->tkij", x, yz).reshape(len(triples), -1),
        }
        for key, arr in tensors.items():
            flat = arr.reshape(len(arr), -1)
            on_vectors = np.einsum("nc,tc->nt", flat, probes[arr.ndim])
            out[key + "_on_vectors"] = inf_norm(on_vectors)
    return out
