"""Classification of charted structures and checks of the main implications.

A structure is sorted by the pointwise residuals of four conditions: the
structure tensor is parallel (Kahler type), the Nijenhuis tensor vanishes
(integrable), the covariant derivative of the structure alternates in its
direction and argument (nearly), or is symmetric in them (Codazzi).  The
canonical-connection torsion and two derived quantities round out the
picture because the main results tie them to those conditions:

* Kahler type is equivalent to vanishing canonical torsion.
* Integrability is equivalent to vanishing of the torsion shift
  T(J., J.) + alpha T.
* When alpha and epsilon agree, nearly forces Kahler type outright.
* When they disagree, nearly is equivalent to skewness of the pairing
  g(T(x, y), x).
* The Codazzi condition forces Kahler type for every kind.

Each theorem check either passes, reports that its hypothesis was not
exercised by the sample, or raises ``TheoremViolation``.  Implications are
tested with a slack factor so that a genuinely tiny hypothesis residual is
never declared a counterexample because of roundoff in the conclusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    closed_form_dimension,
    dimension_table,
    subspace_dimension,
)
from .catalog import catalog, standard_names
from .connection import derived_tensors
from .errors import TheoremViolation
from .manifold import (
    KINDS,
    ChartedManifold,
    SamplePlan,
    StructureKind,
    report_json,
    worst_over_sample,
)
from .tensors import inf_norm

VERDICT_TOL = 1e-8
IMPLICATION_SLACK = 10.0

CONDITIONS = (
    "kahler_type",
    "integrable",
    "nearly",
    "codazzi",
    "canonical_torsion",
    "torsion_shift",
    "torsion_pairing_skew",
)

PLUS_SIGN_CONDITION = "(nabla_x J) y + (nabla_y J) x = 0"
MINUS_SIGN_CONDITION = "(nabla_x J) y - (nabla_y J) x = 0"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one theorem check."""

    name: str
    status: str
    details: str

    def to_dict(self) -> Dict[str, str]:
        return {"name": self.name, "status": self.status, "details": self.details}


@dataclass
class ClassificationReport:
    manifold: str
    kind: StructureKind
    seed: int
    n_points: int
    tol: float
    residuals: Dict[str, float]
    verdicts: Dict[str, bool]
    theorem_checks: List[CheckResult]

    def to_dict(self) -> Dict[str, object]:
        return {
            "manifold": self.manifold,
            "kind": {
                "alpha": self.kind.alpha,
                "epsilon": self.kind.epsilon,
                "label": self.kind.label,
            },
            "sample": {"seed": self.seed, "n_points": self.n_points},
            "tol": self.tol,
            "residuals": dict(self.residuals),
            "verdicts": dict(self.verdicts),
            "theorem_checks": [c.to_dict() for c in self.theorem_checks],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ClassificationReport":
        kind = StructureKind(
            alpha=int(data["kind"]["alpha"]), epsilon=int(data["kind"]["epsilon"])
        )
        return ClassificationReport(
            manifold=str(data["manifold"]),
            kind=kind,
            seed=int(data["sample"]["seed"]),
            n_points=int(data["sample"]["n_points"]),
            tol=float(data["tol"]),
            residuals={k: float(v) for k, v in data["residuals"].items()},
            verdicts={k: bool(v) for k, v in data["verdicts"].items()},
            theorem_checks=[
                CheckResult(name=c["name"], status=c["status"], details=c["details"])
                for c in data["theorem_checks"]
            ],
        )

    def to_json(self) -> str:
        return report_json(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "ClassificationReport":
        return ClassificationReport.from_dict(json.loads(text))

    def render_text(self) -> str:
        lines = [
            f"manifold: {self.manifold}",
            f"kind: {self.kind.label} (alpha={self.kind.alpha:+d}, "
            f"epsilon={self.kind.epsilon:+d})",
            f"sample: seed={self.seed}, points={self.n_points}",
            f"tolerance: {self.tol:.1e}",
            "residuals:",
        ]
        for key in CONDITIONS:
            lines.append(f"  {key:22s}{self.residuals[key]:.3e}")
        lines.append("verdicts:")
        for key in CONDITIONS:
            word = "holds" if self.verdicts[key] else "fails"
            lines.append(f"  {key}: {word}")
        lines.append("theorem checks:")
        for check in self.theorem_checks:
            lines.append(f"  {check.name}: {check.status} ({check.details})")
        return "\n".join(lines) + "\n"


def sample_residuals(
    m: ChartedManifold, plan: Optional[SamplePlan] = None
) -> Dict[str, float]:
    """Worst pointwise residual of each condition over the plan's sample."""
    if plan is None:
        plan = SamplePlan()
    return worst_over_sample(plan.points(m.domain), lambda block: _conditions(m, block))


def _conditions(m: ChartedManifold, points) -> Dict[str, float]:
    arrs = derived_tensors(m, points)
    nj = arrs["nabla_j"]
    t = arrs["torsion"]
    lowered = np.einsum("nai,nijk->najk", arrs["g"], t)
    return {
        "kahler_type": inf_norm(nj),
        "integrable": inf_norm(arrs["nijenhuis"]),
        "nearly": inf_norm(nj + np.einsum("njik->nkij", nj)),
        "codazzi": inf_norm(nj - np.einsum("njik->nkij", nj)),
        "canonical_torsion": inf_norm(t),
        "torsion_shift": inf_norm(arrs["torsion_shift"]),
        "torsion_pairing_skew": inf_norm(lowered + lowered.transpose(0, 3, 2, 1)),
    }


def _implication(
    name: str,
    hyp_label: str,
    hyp: float,
    con_label: str,
    con: float,
    tol: float,
) -> CheckResult:
    details = f"{hyp_label} {hyp:.3e}, {con_label} {con:.3e}, tol {tol:.1e}"
    if hyp < tol:
        if con >= IMPLICATION_SLACK * tol:
            raise TheoremViolation(f"{name}: {details}")
        return CheckResult(name=name, status="passed", details=details)
    return CheckResult(name=name, status="hypothesis not met", details=details)


def _biconditional(
    name: str,
    left_label: str,
    left: float,
    right_label: str,
    right: float,
    tol: float,
) -> CheckResult:
    details = f"{left_label} {left:.3e}, {right_label} {right:.3e}, tol {tol:.1e}"
    slack = IMPLICATION_SLACK * tol
    if left < tol and right >= slack:
        raise TheoremViolation(f"{name}: {details}")
    if right < tol and left >= slack:
        raise TheoremViolation(f"{name}: {details}")
    if left < tol or right < tol:
        return CheckResult(name=name, status="passed", details=details)
    return CheckResult(name=name, status="hypothesis not met", details=details)


def _check_closed_form(
    kind: StructureKind, n: int, query: SubspaceQuery, value: int
) -> int:
    """Return a subspace dimension that equals ``closed_form_dimension``.

    Any other value raises ``TheoremViolation``.
    """
    expected = closed_form_dimension(kind, n, query)
    if value != expected:
        raise TheoremViolation(
            f"{query.value} subspace has dimension {value} for {kind.label}, "
            f"n={n}; the closed form gives {expected}"
        )
    return value


def _with_subspace_note(
    check: CheckResult,
    kind: StructureKind,
    dim: Optional[int],
    query: SubspaceQuery,
) -> CheckResult:
    if dim is None or dim // 2 > MAX_HALF_DIM:
        return check
    n = dim // 2
    value = _check_closed_form(
        kind, n, query, subspace_dimension(ModelFiber.standard(kind, n), query)
    )
    note = f", {query.value} subspace dimension {value} (n={n})"
    return CheckResult(
        name=check.name, status=check.status, details=check.details + note
    )


def _suite_from_residuals(
    residuals: Dict[str, float],
    kind: StructureKind,
    dim: Optional[int],
    tol: float,
) -> List[CheckResult]:
    """Every theorem check that applies to the kind, from sweep residuals.

    Both torsion checks, the nearly check that fits the sign product, and
    the Codazzi check, in that order.  Given the manifold dimension ``dim``,
    the nearly-forces and Codazzi checks carry the subspace dimension of the
    matching model fiber; with ``dim=None`` no subspace is queried.
    """
    checks = [
        _biconditional(
            "kahler_type_iff_torsion_free",
            "structure derivative residual",
            residuals["kahler_type"],
            "canonical torsion residual",
            residuals["canonical_torsion"],
            tol,
        ),
        _biconditional(
            "integrable_iff_torsion_shift_vanishes",
            "Nijenhuis residual",
            residuals["integrable"],
            "torsion shift residual",
            residuals["torsion_shift"],
            tol,
        ),
    ]
    if kind.product == 1:
        nearly = _implication(
            "nearly_forces_kahler_type",
            "nearly residual",
            residuals["nearly"],
            "structure derivative residual",
            residuals["kahler_type"],
            tol,
        )
        checks.append(_with_subspace_note(nearly, kind, dim, SubspaceQuery.ALTERNATING))
    else:
        checks.append(
            _biconditional(
                "nearly_iff_torsion_pairing_skew",
                "nearly residual",
                residuals["nearly"],
                "torsion pairing symmetric part",
                residuals["torsion_pairing_skew"],
                tol,
            )
        )
    codazzi = _implication(
        "codazzi_forces_kahler_type",
        "codazzi residual",
        residuals["codazzi"],
        "structure derivative residual",
        residuals["kahler_type"],
        tol,
    )
    checks.append(_with_subspace_note(codazzi, kind, dim, SubspaceQuery.SYMMETRIC))
    return checks


def classify(
    m: ChartedManifold,
    plan: Optional[SamplePlan] = None,
    tol: float = VERDICT_TOL,
) -> ClassificationReport:
    """Residuals, verdicts, and theorem checks for one charted structure."""
    if plan is None:
        plan = SamplePlan()
    residuals = sample_residuals(m, plan)
    verdicts = {key: bool(residuals[key] < tol) for key in CONDITIONS}
    checks = _suite_from_residuals(residuals, m.kind, m.dim, tol)
    return ClassificationReport(
        manifold=m.name,
        kind=m.kind,
        seed=plan.seed,
        n_points=plan.n_points,
        tol=tol,
        residuals=residuals,
        verdicts=verdicts,
        theorem_checks=checks,
    )


def condition_table(
    plan: Optional[SamplePlan] = None,
    tol: float = VERDICT_TOL,
    dims: Optional[dict] = None,
) -> Dict[str, object]:
    """Classes cut out by the two sign conditions, for each kind.

    The cells are decided by exact subspace dimensions in the largest
    supported model fiber: a zero-dimensional subspace means the condition
    forces the structure derivative itself to vanish.  ``dims`` is the
    output of ``dimension_table()``, which is computed when not given; every
    dimension in it must equal ``closed_form_dimension`` or
    ``TheoremViolation`` is raised.  Each cell also records the outcome of
    the matching theorem check on every catalog entry of that kind, as
    sampled evidence beside the algebraic proof.
    """
    if plan is None:
        plan = SamplePlan()
    if dims is None:
        dims = dimension_table()
    if any(MAX_HALF_DIM not in dims.get(kind.label, {}) for kind in KINDS):
        raise ValueError(f"dims must reach n={MAX_HALF_DIM} for every kind")
    for kind in KINDS:
        for n, queries in dims[kind.label].items():
            for query in SubspaceQuery:
                _check_closed_form(kind, n, query, queries[query.value])
    n = MAX_HALF_DIM
    by_kind: Dict[str, List[ChartedManifold]] = {}
    for name in standard_names():
        m = catalog(name)
        by_kind.setdefault(m.kind.label, []).append(m)
    cells: Dict[str, object] = {}
    for kind in KINDS:
        alt = dims[kind.label][n][SubspaceQuery.ALTERNATING.value]
        sym = dims[kind.label][n][SubspaceQuery.SYMMETRIC.value]
        if kind.product == 1:
            plus_class = "Kahler type"
            plus_check = "nearly_forces_kahler_type"
        else:
            plus_class = "nearly Kahler type"
            plus_check = "nearly_iff_torsion_pairing_skew"
        plus_entries: Dict[str, str] = {}
        minus_entries: Dict[str, str] = {}
        for m in by_kind.get(kind.label, []):
            checks = _suite_from_residuals(
                sample_residuals(m, plan), m.kind, None, tol
            )
            statuses = {c.name: c.status for c in checks}
            plus_entries[m.name] = statuses[plus_check]
            minus_entries[m.name] = statuses["codazzi_forces_kahler_type"]
        cells[kind.label] = {
            "plus_sign": {
                "subspace_dimension": alt,
                "class": plus_class,
                "entry_checks": plus_entries,
            },
            "minus_sign": {
                "subspace_dimension": sym,
                "class": "Kahler type",
                "entry_checks": minus_entries,
            },
        }
    return {
        "half_dimension": n,
        "plus_sign_condition": PLUS_SIGN_CONDITION,
        "minus_sign_condition": MINUS_SIGN_CONDITION,
        "cells": cells,
    }


def render_condition_table(table: Dict[str, object]) -> str:
    lines = [
        f"sign conditions in the model fiber with half-dimension "
        f"{table['half_dimension']}",
        f"  plus sign:  {table['plus_sign_condition']}",
        f"  minus sign: {table['minus_sign_condition']}",
    ]
    for label, cell in table["cells"].items():
        plus = cell["plus_sign"]
        minus = cell["minus_sign"]
        lines.append(
            f"  {label:20s} plus -> {plus['class']} "
            f"(dim {plus['subspace_dimension']}), "
            f"minus -> {minus['class']} (dim {minus['subspace_dimension']})"
        )
        for name in sorted(plus["entry_checks"]):
            lines.append(
                f"    {name}: plus {plus['entry_checks'][name]}, "
                f"minus {minus['entry_checks'][name]}"
            )
    return "\n".join(lines) + "\n"
