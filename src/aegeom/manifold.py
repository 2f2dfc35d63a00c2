"""Charted manifolds carrying a metric and a squared-identity structure.

A structure kind is a pair of signs (alpha, epsilon): the structure tensor J
satisfies J^2 = alpha * Id and the metric satisfies g(JX, JY) = epsilon *
g(X, Y).  The four kinds are almost Hermitian (-1, +1), almost product
Riemannian (+1, +1, with trace J = 0 required), almost Norden (-1, -1), and
almost para-Hermitian (+1, -1).  The last two force a split-signature
metric.  ``standard_pair`` gives the flat integer pair of each kind, and
``axiom_residuals`` states the axioms for every caller: the sample sweeps
here and in ``aegeom.connection``, and the exact fibers of ``aegeom.algebra``.

A manifold has one field function of the chart coordinates that returns
the pair (metric, structure), since the catalog builds each metric from its
structure and both from one chart.  It must accept ``Dual`` numbers carrying
a whole stack of sample points, so that first derivatives come out of one
forward-mode pass, and numpy floats for the float reference; every
evaluation calls it once.  Each half of the pair is a matrix ``Dual``, an
array (a constant field) or nested entries, and one conversion turns each
into the stacks the rest of the package reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .dual import Dual, matrix
from .errors import (
    ConfigError,
    DomainEmpty,
    ExpressionError,
    NearSingularMetric,
    NonFiniteField,
    PointOutsideDomain,
    SlotMismatch,
)
from .expressions import Expr, parse_expression

VALIDATION_TOL = 1e-8
# |det g| at or below the floor is too close to singular for a solve
DET_FLOOR = 1e-10

# Points per batched pass of a sweep: memory grows with the points in a
# pass, about 27 KB per point in dimension six.
SWEEP_BLOCK = 256

FieldsFn = Callable[[Sequence], Tuple[object, object]]


@dataclass(frozen=True)
class StructureKind:
    """Sign pair selecting one of the four compatible geometries."""

    alpha: int
    epsilon: int

    def __post_init__(self) -> None:
        if self.alpha not in (-1, 1) or self.epsilon not in (-1, 1):
            raise ValueError("alpha and epsilon must each be -1 or +1")

    @property
    def product(self) -> int:
        return self.alpha * self.epsilon

    @property
    def label(self) -> str:
        return _KIND_LABELS[(self.alpha, self.epsilon)]

    @staticmethod
    def from_name(name: str) -> "StructureKind":
        for (alpha, epsilon), label in _KIND_LABELS.items():
            if label == name:
                return StructureKind(alpha, epsilon)
        known = ", ".join(sorted(_KIND_LABELS.values()))
        raise ValueError(f"unknown structure kind {name!r} (known: {known})")


_KIND_LABELS = {
    (-1, 1): "hermitian",
    (1, 1): "product-riemannian",
    (-1, -1): "norden",
    (1, -1): "para-hermitian",
}

HERMITIAN = StructureKind(-1, 1)
PRODUCT_RIEMANNIAN = StructureKind(1, 1)
NORDEN = StructureKind(-1, -1)
PARA_HERMITIAN = StructureKind(1, -1)
KINDS = (HERMITIAN, PRODUCT_RIEMANNIAN, NORDEN, PARA_HERMITIAN)


def standard_pair(kind: StructureKind, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Integer (inner form, j0) of the flat model of the kind in dimension 2n.

    j0 is n rotation blocks for alpha = -1 and diag(Id_n, -Id_n) for
    alpha = +1.  The inner form is the identity for epsilon = +1; for
    epsilon = -1 it is diag(1, -1, ...) with rotation blocks and the
    off-diagonal identity blocks with the split j0.
    """
    d = 2 * n
    if kind.alpha == -1:
        j0 = np.zeros((d, d), dtype=int)
        for b in range(0, d, 2):
            j0[b, b + 1], j0[b + 1, b] = -1, 1
    else:
        j0 = np.diag([1] * n + [-1] * n)
    if kind.epsilon == 1:
        inner = np.eye(d, dtype=int)
    elif kind.alpha == -1:
        inner = np.diag([1, -1] * n)
    else:
        inner = np.eye(d, k=n, dtype=int) + np.eye(d, k=-n, dtype=int)
    return inner, j0


@dataclass(frozen=True)
class Box:
    """Axis-aligned open box used as a chart domain."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(float(x) for x in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        # sampling scales by hi - lo, which overflows for finite bounds too
        if not all(math.isfinite(h - l) for l, h in zip(self.lo, self.hi)):
            raise ValueError("domain width hi - lo is not finite")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        return any(h <= l for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class ChartedManifold:
    """Single-chart manifold with one function giving (metric, structure)."""

    name: str
    kind: StructureKind
    dim: int
    domain: Box
    fields: FieldsFn

    def __post_init__(self) -> None:
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"dimension must be even and >= 2, got {self.dim}")
        if self.domain.dim != self.dim:
            raise ValueError("domain dimension does not match manifold dimension")


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample of interior points."""

    seed: int = 0
    n_points: int = 50

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def points(self, domain: Box) -> np.ndarray:
        """Points strictly inside the box, stable under shrinking n_points."""
        if domain.is_empty():
            raise DomainEmpty(f"domain {domain.lo} .. {domain.hi} has no interior")
        rng = np.random.default_rng([self.seed, 11])
        u = rng.random((self.n_points, domain.dim))
        lo = np.asarray(domain.lo)
        hi = np.asarray(domain.hi)
        return lo + (0.05 + 0.9 * u) * (hi - lo)


def evaluate_fields(m: ChartedManifold, point: Sequence[float]):
    """Metric and structure matrices at a point, as finite float arrays.

    The plain-float reference for ``eval_with_derivatives``; no sweep uses it.
    """
    stack = np.asarray(point, dtype=float).reshape(1, -1)
    _require_inside(m, stack)
    # numpy floats give inf or nan where Python floats raise, and the
    # finiteness check below then names the cell
    with np.errstate(all="ignore"):
        g_entries, j_entries = _call_fields(m, list(stack[0]), stack[0])
    g = _field_stacks(g_entries, 1, m.dim, "metric")[0]
    j = _field_stacks(j_entries, 1, m.dim, "structure")[0]
    _require_finite(m, stack, np.isfinite(g), np.isfinite(j), "value")
    return g[0], j[0]


def eval_with_derivatives(m: ChartedManifold, points):
    """Values and first derivatives of the metric and structure.

    ``points`` is a stack (N, d), or one point (d,) as a stack of one,
    evaluated by one call of the field function on duals.  Returns float
    stacks g, dg, J, dJ with dg[n, k, i, j] = d_k g_ij and dJ[n, k, i, j] =
    d_k J^i_j at point n.  A value or derivative that is not finite raises
    ``NonFiniteField`` naming the cell and the first such point.
    """
    stack = np.atleast_2d(np.asarray(points, dtype=float))
    _require_inside(m, stack)
    with np.errstate(all="ignore"):
        g_entries, j_entries = _call_fields(m, Dual.seed(stack), stack[0])
    g, dg = _field_stacks(g_entries, len(stack), m.dim, "metric")
    jj, dj = _field_stacks(j_entries, len(stack), m.dim, "structure")
    finite_g = np.isfinite(g) & np.isfinite(dg).all(axis=1)
    finite_j = np.isfinite(jj) & np.isfinite(dj).all(axis=1)
    _require_finite(m, stack, finite_g, finite_j, "value or derivative")
    return g, dg, jj, dj


def _require_inside(m: ChartedManifold, stack: np.ndarray) -> None:
    """Raise ``PointOutsideDomain`` naming the first point not in the box.

    The comparisons are strict, so a NaN coordinate is outside.
    """
    if stack.shape[1:] != (m.domain.dim,):
        inside = np.zeros(len(stack), dtype=bool)
    else:
        lo, hi = np.asarray(m.domain.lo), np.asarray(m.domain.hi)
        inside = ((lo < stack) & (stack < hi)).all(axis=1)
    if not inside.all():
        point = _as_tuple(stack[int(np.argmin(inside))])
        raise PointOutsideDomain(f"point {point} not inside {m.name} domain")


def _as_tuple(point) -> Tuple[float, ...]:
    return tuple(float(x) for x in point)


def _call_fields(m: ChartedManifold, coords, point):
    try:
        return m.fields(coords)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteField(
            f"fields of {m.name} are undefined at point {_as_tuple(point)}: {exc}"
        ) from exc


def _require_finite(m: ChartedManifold, points, finite_g, finite_j, what: str):
    """Raise for the first point, then the first cell, that is not finite."""
    bad = ~np.stack([finite_g, finite_j], axis=1)
    if bad.any():
        n, field, i, j = np.argwhere(bad)[0]
        raise NonFiniteField(
            f"{('metric', 'structure')[field]}[{i}][{j}] of {m.name} has a "
            f"non-finite {what} at point {_as_tuple(points[n])}"
        )


def report_json(payload) -> str:
    """The one JSON format of reports and CLI output: sorted, indent 2, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class ValidationReport:
    """Pointwise structure-axiom residuals over a deterministic sample."""

    manifold: str
    alpha: int
    epsilon: int
    seed: int
    n_points: int
    residuals: Dict[str, float]
    min_abs_det: float
    failures: List[str]
    valid: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def render_text(self) -> str:
        lines = [
            f"manifold: {self.manifold}",
            f"kind: alpha={self.alpha:+d} epsilon={self.epsilon:+d}",
            f"sample: seed={self.seed} points={self.n_points}",
            f"min |det g|: {self.min_abs_det:.6e}",
            "residuals:",
        ]
        for key in sorted(self.residuals):
            lines.append(f"  {key:24s} {self.residuals[key]:.6e}")
        if self.failures:
            lines.append("failed checks: " + ", ".join(self.failures))
        lines.append("verdict: " + ("valid" if self.valid else "invalid"))
        return "\n".join(lines) + "\n"


def sample_blocks(points) -> List[np.ndarray]:
    """A point stack cut into blocks of ``SWEEP_BLOCK`` points, in sample order."""
    points = np.atleast_2d(points)
    return [
        points[start : start + SWEEP_BLOCK]
        for start in range(0, len(points), SWEEP_BLOCK)
    ]


def worst_over_sample(points, block_residuals) -> Dict[str, float]:
    """Worst of each residual over a point stack, taken block by block.

    Blocks run in sample order, so a failing check still names the first
    failing sample point.
    """
    blocks = [block_residuals(block) for block in sample_blocks(points)]
    return {key: max(block[key] for block in blocks) for key in blocks[0]}


def axiom_residuals(kind: StructureKind, g, j) -> Dict[str, np.ndarray]:
    """Residual stacks of the structure axioms for (N, d, d) stacks g, J.

    Keys: ``structure_squared`` for J^2 - alpha*Id, ``metric_symmetry`` for
    g - g^T, ``metric_isometry`` for g(J., J.) - epsilon*g, ``pairing_swap``
    for g(J., .) - alpha*epsilon*g(., J.), and for the product-Riemannian
    kind ``structure_trace``.  A structure is valid where every residual is
    below ``VALIDATION_TOL``.  On integer stacks every residual is exact.
    """
    gj = g @ j
    residuals = {
        "structure_squared": j @ j - kind.alpha * np.eye(j.shape[-1]),
        "metric_symmetry": g - np.swapaxes(g, 1, 2),
        "metric_isometry": np.swapaxes(j, 1, 2) @ g @ j - kind.epsilon * g,
        "pairing_swap": gj - kind.product * np.swapaxes(gj, 1, 2),
    }
    if kind == PRODUCT_RIEMANNIAN:
        residuals["structure_trace"] = np.trace(j, axis1=1, axis2=2)
    return residuals


def inf_norm(arr) -> float:
    """Largest absolute component (over every point of a stack); 0 if empty."""
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def metric_abs_det(m: ChartedManifold, points, g) -> np.ndarray:
    """|det g| at each point of a stack.

    Raises ``NearSingularMetric`` at the first point where it falls to
    ``DET_FLOOR``.
    """
    det = np.abs(np.linalg.det(g))
    low = det <= DET_FLOOR
    if low.any():
        n = int(np.argmax(low))
        raise NearSingularMetric(
            f"|det g| = {det[n]:.3e} at point {_as_tuple(points[n])} of {m.name}",
            point=points[n],
        )
    return det


def validate_structure(m: ChartedManifold, plan: SamplePlan) -> ValidationReport:
    """Worst residual of each structure axiom over the plan's sample.

    Residual keys are those of ``axiom_residuals``.  An axiom fails where
    its residual reaches ``VALIDATION_TOL``, the tolerance every verb checks
    the axioms against.  Raises ``NearSingularMetric`` at the first sampled
    point where |det g| falls to the floor.
    """
    residuals: Dict[str, float] = {}
    min_abs_det = np.inf
    for block in sample_blocks(plan.points(m.domain)):
        g, _, j, _ = eval_with_derivatives(m, block)
        min_abs_det = min(min_abs_det, metric_abs_det(m, block, g).min())
        for key, stack in axiom_residuals(m.kind, g, j).items():
            residuals[key] = max(residuals.get(key, 0.0), inf_norm(stack))
    failures = [key for key, value in residuals.items() if value >= VALIDATION_TOL]
    return ValidationReport(
        manifold=m.name,
        alpha=m.kind.alpha,
        epsilon=m.kind.epsilon,
        seed=plan.seed,
        n_points=plan.n_points,
        residuals=residuals,
        min_abs_det=float(min_abs_det),
        failures=failures,
        valid=not failures,
    )


def _field_stacks(entries, n: int, dim: int, what: str):
    """Value (n, dim, dim) and gradient (n, dim, dim, dim) stacks of a field.

    ``entries`` is what the field returned: a matrix ``Dual``, an array, or
    nested entries for ``matrix``.  An array is constant, so its gradient is
    zero; both it and its gradient are broadcast, not copied.
    """
    mismatch = SlotMismatch(f"{what} must produce a {dim}x{dim} matrix")
    try:
        if not isinstance(entries, (Dual, np.ndarray)):
            entries = matrix(entries)
        if isinstance(entries, Dual):
            value, grad = entries.value, np.moveaxis(entries.grad, -1, -3)
        else:
            value, grad = np.asarray(entries, dtype=float), np.zeros(())
    except (IndexError, TypeError, ValueError) as exc:
        raise mismatch from exc
    if value.shape not in ((dim, dim), (n, dim, dim)):
        raise mismatch
    return (
        np.broadcast_to(value, (n, dim, dim)),
        np.broadcast_to(grad, (n, dim, dim, dim)),
    )


def load_manifold_config(path) -> ChartedManifold:
    """Build a manifold from a JSON description of its components.

    The file must provide ``kind`` ({"alpha": +-1, "epsilon": +-1}),
    ``dim``, ``domain`` ({"lo": [...], "hi": [...]}), and ``metric`` and
    ``structure`` as dim x dim arrays of expression strings in x1 .. x<dim>.
    An optional ``name`` overrides the file stem.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # int()'s digit limit; RecursionError covers deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    kind_raw = _require(raw, "kind", dict, path)
    signs = []
    for key in ("alpha", "epsilon"):
        if key not in kind_raw:
            raise ConfigError(f"{path}: kind.{key} is missing")
        value = kind_raw[key]
        # read like 'dim': a cast would truncate 1.9 and accept true or "-1"
        if type(value) is not int or value not in (-1, 1):
            raise ConfigError(
                f"{path}: kind.{key} is {json.dumps(value)}; "
                "alpha and epsilon must each be the integer -1 or 1"
            )
        signs.append(value)
    kind = StructureKind(*signs)

    dim = _require(raw, "dim", int, path)
    if dim < 2 or dim % 2 != 0:
        raise ConfigError(f"{path}: 'dim' must be even and at least 2, got {dim}")
    domain_raw = _require(raw, "domain", dict, path)
    for key in ("lo", "hi"):
        bounds = domain_raw.get(key)
        if not isinstance(bounds, list) or not all(map(_finite_number, bounds)):
            raise ConfigError(f"{path}: domain.{key} must be a list of finite numbers")
    try:
        domain = Box(tuple(domain_raw["lo"]), tuple(domain_raw["hi"]))
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if domain.dim != dim:
        raise ConfigError(f"{path}: domain length {domain.dim} but dim {dim}")
    if domain.is_empty():
        raise DomainEmpty(f"{path}: domain has no interior")

    # each distinct cell text is parsed once and evaluated once per call
    compiled: Dict[str, Expr] = {}
    metric_rows = _compile_matrix(raw, "metric", dim, path, compiled)
    structure_rows = _compile_matrix(raw, "structure", dim, path, compiled)
    name = raw.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}: name must be a non-empty string")

    def fields(coords):
        values = {text: e.evaluate(coords) for text, e in compiled.items()}
        return tuple(
            [[values[text] for text in row] for row in rows]
            for rows in (metric_rows, structure_rows)
        )

    return ChartedManifold(
        name=name,
        kind=kind,
        dim=dim,
        domain=domain,
        fields=fields,
    )


def _require(raw: dict, key: str, expected_type, path):
    if key not in raw:
        raise ConfigError(f"{path}: {key!r} is missing")
    value = raw[key]
    if expected_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: {key!r} must be an integer")
    elif not isinstance(value, expected_type):
        raise ConfigError(f"{path}: {key!r} must be a {expected_type.__name__}")
    return value


def _finite_number(x) -> bool:
    # JSON gives NaN and +-Infinity as floats and big integers as ints;
    # an int too large for a float passes here and fails in Box
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) < math.inf


def _compile_matrix(raw: dict, key: str, dim: int, path, compiled: Dict[str, Expr]):
    """The matrix's rows of cell texts; parses each text not yet in ``compiled``."""
    rows = raw.get(key)
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise ConfigError(f"{path}: {key!r} must be a {dim}x{dim} array of strings")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ConfigError(f"{path}: {key}[{i}][{j}] must be a string")
            if cell in compiled:
                continue
            try:
                compiled[cell] = parse_expression(cell, dim)
            except ExpressionError as exc:
                raise ExpressionError(
                    f"{key}[{i}][{j}] of {path.name}: {exc.message}",
                    exc.line,
                    exc.column,
                ) from exc
    return rows
