"""Classification of charted structures and checks of the main implications.

A structure is sorted by the pointwise residuals of four conditions: the
structure tensor is parallel (Kahler type), the Nijenhuis tensor vanishes
(integrable), the covariant derivative of the structure alternates in its
direction and argument (nearly), or is symmetric in them (Codazzi).  The
canonical-connection torsion and two derived quantities round out the
picture because the main results tie them to those conditions.  Each
result is one row of ``THEOREMS``:

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

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    sampled_condition,
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
    inf_norm,
    worst_over_sample,
)

VERDICT_TOL = 1e-8
IMPLICATION_SLACK = 10.0

# residual key: the words naming it in a check's details.  The order is the
# order of the residuals in reports.
LABELS = {
    "kahler_type": "structure derivative residual",
    "integrable": "Nijenhuis residual",
    "nearly": "nearly residual",
    "codazzi": "codazzi residual",
    "canonical_torsion": "canonical torsion residual",
    "torsion_shift": "torsion shift residual",
    "torsion_pairing_skew": "torsion pairing symmetric part",
}
CONDITIONS = tuple(LABELS)


class Theorem(NamedTuple):
    """One checked result: a small hypothesis residual forces a small conclusion.

    ``products`` are the sign products alpha*epsilon it holds for.  With
    ``converse`` the conclusion forces the hypothesis too.  ``note`` is the
    subspace whose model-fiber dimension the check reports, if any.
    """

    name: str
    products: Tuple[int, ...]
    hypothesis: str
    conclusion: str
    converse: bool = False
    note: Optional[SubspaceQuery] = None


BOTH = (1, -1)
# The checks a kind gets are the rows for its sign product, in this order.
THEOREMS = (
    Theorem("kahler_type_iff_torsion_free", BOTH, "kahler_type",
            "canonical_torsion", converse=True),
    Theorem("integrable_iff_torsion_shift_vanishes", BOTH, "integrable",
            "torsion_shift", converse=True),
    Theorem("nearly_forces_kahler_type", (1,), "nearly", "kahler_type",
            note=SubspaceQuery.ALTERNATING),
    Theorem("nearly_iff_torsion_pairing_skew", (-1,), "nearly",
            "torsion_pairing_skew", converse=True),
    Theorem("codazzi_forces_kahler_type", BOTH, "codazzi", "kahler_type",
            note=SubspaceQuery.SYMMETRIC),
)

# (cell key, condition, its subspace, the class when that subspace is not
# zero).  A zero subspace means the condition forces Kahler type; the
# subspace's ``condition`` is the residual key.
SIGN_CONDITIONS = (
    ("plus_sign", "(nabla_x J) y + (nabla_y J) x = 0",
     SubspaceQuery.ALTERNATING, "nearly Kahler type"),
    ("minus_sign", "(nabla_x J) y - (nabla_y J) x = 0",
     SubspaceQuery.SYMMETRIC, "Kahler-Codazzi type"),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one theorem check."""

    name: str
    status: str
    details: str

    def to_dict(self) -> Dict[str, str]:
        return asdict(self)


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
    m: ChartedManifold, plan: SamplePlan = SamplePlan()
) -> Dict[str, float]:
    """Worst pointwise residual of each condition over the plan's sample."""
    return worst_over_sample(plan.points(m.domain), lambda block: _conditions(m, block))


def _conditions(m: ChartedManifold, points) -> Dict[str, float]:
    arrs = derived_tensors(m, points)
    nj, t, ae = arrs["nabla_j"], arrs["torsion"], m.kind.product
    # lowered[n, j, k, a] = sum_i t[n, i, j, k] g[n, a, i]
    lowered = t.transpose(0, 2, 3, 1) @ arrs["g"].swapaxes(1, 2)[:, None]
    return {
        "kahler_type": inf_norm(nj),
        "integrable": inf_norm(arrs["nijenhuis"]),
        "nearly": inf_norm(sampled_condition(nj, ae, "nearly")),
        "codazzi": inf_norm(sampled_condition(nj, ae, "codazzi")),
        "canonical_torsion": inf_norm(t),
        "torsion_shift": inf_norm(arrs["torsion_shift"]),
        "torsion_pairing_skew": inf_norm(lowered + lowered.swapaxes(2, 3)),
    }


def _theorems_for(kind: StructureKind) -> List[Theorem]:
    """The rows of ``THEOREMS`` that hold for the kind, in table order."""
    return [row for row in THEOREMS if kind.product in row.products]


def _theorem_check(
    row: Theorem, residuals: Dict[str, float], tol: float
) -> CheckResult:
    """Check one theorem row, in both directions when it has a converse.

    A direction whose hypothesis is below ``tol`` passes unless its
    conclusion reaches ``IMPLICATION_SLACK * tol``, which raises
    ``TheoremViolation``; with no hypothesis below ``tol`` the hypothesis
    was not met.
    """
    hyp, con = residuals[row.hypothesis], residuals[row.conclusion]
    details = (
        f"{LABELS[row.hypothesis]} {hyp:.3e}, "
        f"{LABELS[row.conclusion]} {con:.3e}, tol {tol:.1e}"
    )
    directions = ((hyp, con), (con, hyp)) if row.converse else ((hyp, con),)
    met = False
    for given, claimed in directions:
        if given < tol:
            if claimed >= IMPLICATION_SLACK * tol:
                raise TheoremViolation(f"{row.name}: {details}")
            met = True
    return CheckResult(row.name, "passed" if met else "hypothesis not met", details)


def classify(
    m: ChartedManifold,
    plan: SamplePlan = SamplePlan(),
    tol: float = VERDICT_TOL,
) -> ClassificationReport:
    """Residuals, verdicts, and theorem checks for one charted structure.

    A theorem row with a ``note`` also reports the dimension of its subspace
    in the model fiber of the manifold's half-dimension, one fiber for every
    row; past ``MAX_HALF_DIM`` no subspace is queried.
    """
    residuals = sample_residuals(m, plan)
    verdicts = {key: bool(residuals[key] < tol) for key in CONDITIONS}
    n = m.dim // 2
    fiber = ModelFiber.standard(m.kind, n) if n <= MAX_HALF_DIM else None
    checks = []
    for row in _theorems_for(m.kind):
        check = _theorem_check(row, residuals, tol)
        if row.note is not None and fiber is not None:
            value = subspace_dimension(fiber, row.note)
            note = f", {row.note.value} subspace dimension {value} (n={n})"
            check = replace(check, details=check.details + note)
        checks.append(check)
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


def condition_table(plan: SamplePlan, tol: float, dims: dict) -> Dict[str, object]:
    """Classes cut out by the two sign conditions, for each kind.

    The cells are decided by exact subspace dimensions in the largest
    supported model fiber: a zero-dimensional subspace means the condition
    forces the structure derivative itself to vanish, so the class is
    Kahler type; any other dimension leaves the class of the condition
    (``SIGN_CONDITIONS``).  ``dims`` is the output of ``dimension_table``,
    whose every cell ``subspace_dimensions`` has checked against the closed
    form.  Each cell also records, on every catalog entry of that kind, the
    status of the theorem check whose hypothesis is the condition, as
    sampled evidence beside the algebraic proof.
    """
    n = MAX_HALF_DIM
    statuses: Dict[str, Dict[str, Dict[str, str]]] = {k.label: {} for k in KINDS}
    for name in standard_names():
        m = catalog(name)
        residuals = sample_residuals(m, plan)
        statuses[m.kind.label][m.name] = {
            row.hypothesis: _theorem_check(row, residuals, tol).status
            for row in _theorems_for(m.kind)
        }
    cells: Dict[str, object] = {}
    for label, by_entry in statuses.items():
        cells[label] = {}
        for key, _, query, nonzero_class in SIGN_CONDITIONS:
            dim = dims[label][n][query.value]
            cells[label][key] = {
                "subspace_dimension": dim,
                "class": "Kahler type" if dim == 0 else nonzero_class,
                "entry_checks": {e: by[query.condition] for e, by in by_entry.items()},
            }
    return {
        "half_dimension": n,
        **{f"{key}_condition": text for key, text, *_ in SIGN_CONDITIONS},
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
