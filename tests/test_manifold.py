"""Kinds, domains, sampling, field evaluation, validation, and config loading."""

import dataclasses
import importlib
import json
import re

import numpy as np
import pytest

from aegeom.connection import vector_triples
from aegeom.errors import (
    ConfigError,
    DomainEmpty,
    ExpressionError,
    NearSingularMetric,
    NonFiniteField,
    PointOutsideDomain,
    SlotMismatch,
)
from aegeom.manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    StructureKind,
    eval_with_derivatives,
    evaluate_fields,
    inf_norm,
    load_manifold_config,
    report_json,
    validate_structure,
)

# the package exports the function ``catalog`` under the module's name
catalog_module = importlib.import_module("aegeom.catalog")

ROTATION = [[0.0, -1.0], [1.0, 0.0]]
REFLECTION = [[1.0, 0.0], [0.0, -1.0]]


def const_manifold(kind, g, j, name="probe", lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    dim = len(g)
    return ChartedManifold(
        name=name,
        kind=kind,
        dim=dim,
        domain=Box(lo[:dim] if len(lo) == dim else tuple(lo) * 1, tuple(hi)),
        fields=lambda c, _g=g, _j=j: (_g, _j),
    )


def flat2(kind, g=None, j=None):
    if g is None:
        g = np.eye(2).tolist()
    if j is None:
        j = ROTATION if kind.alpha == -1 else REFLECTION
    return ChartedManifold(
        name="flat2",
        kind=kind,
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        fields=lambda c, _g=g, _j=j: (_g, _j),
    )


def test_kind_signs_and_labels():
    assert HERMITIAN.product == -1
    assert PARA_HERMITIAN.product == -1
    assert NORDEN.product == 1
    assert PRODUCT_RIEMANNIAN.product == 1
    labels = {k.label for k in KINDS}
    assert labels == {"hermitian", "product-riemannian", "norden", "para-hermitian"}
    for k in KINDS:
        assert StructureKind.from_name(k.label) == k


def test_kind_rejects_bad_signs_and_names():
    with pytest.raises(ValueError):
        StructureKind(0, 1)
    with pytest.raises(ValueError):
        StructureKind(-1, 2)
    with pytest.raises(ValueError):
        StructureKind.from_name("kaehler")


def test_box_containment_is_strict():
    b = Box((-1.0, 0.0), (1.0, 2.0))
    assert b.dim == 2
    assert not b.is_empty()
    assert Box((0.0,), (0.0,)).is_empty()
    with pytest.raises(ValueError):
        Box((0.0,), (1.0, 2.0))


def test_manifold_requires_even_dimension():
    with pytest.raises(ValueError):
        ChartedManifold(
            name="odd",
            kind=HERMITIAN,
            dim=3,
            domain=Box((-1.0,) * 3, (1.0,) * 3),
            fields=lambda c: (np.eye(3).tolist(), np.eye(3).tolist()),
        )
    with pytest.raises(ValueError):
        flat_domain = Box((-1.0,), (1.0,))
        ChartedManifold(
            name="mismatch",
            kind=HERMITIAN,
            dim=2,
            domain=flat_domain,
            fields=lambda c: (np.eye(2).tolist(), ROTATION),
        )


def test_sample_plan_is_deterministic():
    b = Box((-1.0, 2.0), (1.0, 3.0))
    p1 = SamplePlan(seed=7, n_points=12).points(b)
    p2 = SamplePlan(seed=7, n_points=12).points(b)
    assert np.array_equal(p1, p2)
    p3 = SamplePlan(seed=8, n_points=12).points(b)
    assert not np.array_equal(p1, p3)


def test_sample_points_stay_strictly_interior_with_margin():
    b = Box((0.0, -2.0), (1.0, 0.0))
    pts = SamplePlan(seed=0, n_points=200).points(b)
    lo = np.array(b.lo)
    hi = np.array(b.hi)
    margin = 0.05 * (hi - lo)
    assert np.all(pts > lo + margin * 0.999)
    assert np.all(pts < hi - margin * 0.999)


def test_sample_points_are_prefix_stable():
    b = Box((-1.0, -1.0), (1.0, 1.0))
    big = SamplePlan(seed=3, n_points=50).points(b)
    small = SamplePlan(seed=3, n_points=10).points(b)
    assert np.array_equal(big[:10], small)


def test_vector_triples_norms_and_prefix():
    v = vector_triples(5, 30, 6)
    assert v.shape == (30, 3, 6)
    norms = np.max(np.abs(v), axis=2)
    assert np.all(norms >= 0.1 - 1e-12)
    assert np.all(norms <= 1.0 + 1e-12)
    assert np.array_equal(v[:4], vector_triples(5, 4, 6))
    with pytest.raises(ValueError):
        vector_triples(5, 0, 6)


def test_sample_plan_rejects_empty_domain_and_bad_counts():
    with pytest.raises(ValueError):
        SamplePlan(n_points=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SamplePlan(seed=-1)
    empty = Box((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(DomainEmpty):
        SamplePlan().points(empty)


def test_evaluate_fields_and_domain_check():
    m = flat2(HERMITIAN)
    g, j = evaluate_fields(m, (0.2, -0.3))
    assert np.array_equal(g, np.eye(2))
    assert np.array_equal(j, ROTATION)
    with pytest.raises(PointOutsideDomain):
        evaluate_fields(m, (2.0, 0.0))
    with pytest.raises(PointOutsideDomain):
        eval_with_derivatives(m, (0.0, 1.5))


def test_domain_check_names_the_first_outside_point_of_a_stack():
    m = flat2(HERMITIAN)
    stack = [(0.1, 0.2), (-0.3, 0.4), (0.5, 1.25), (3.0, 0.0)]
    with pytest.raises(PointOutsideDomain, match=r"point \(0\.5, 1\.25\) "):
        eval_with_derivatives(m, stack)
    stack = [(0.1, 0.2), (float("nan"), 0.4), (3.0, 0.0)]
    with pytest.raises(PointOutsideDomain, match=r"point \(nan, 0\.4\) "):
        eval_with_derivatives(m, stack)
    with pytest.raises(PointOutsideDomain, match=r"point \(0\.1, 0\.2, 0\.3\) "):
        eval_with_derivatives(m, [(0.1, 0.2, 0.3)])
    # the float reference applies the same rule to its one point
    for point in [(1.0, 0.5), (0.0, 2.0), (0.0,)]:  # boundary, outside, width
        with pytest.raises(PointOutsideDomain, match=re.escape(f"point {point} ")):
            evaluate_fields(m, point)


def test_each_evaluation_calls_the_field_function_once(monkeypatch):
    calls = []
    m = flat2(HERMITIAN)
    counted = dataclasses.replace(m, fields=lambda c: calls.append(1) or m.fields(c))
    evaluate_fields(counted, (0.1, 0.2))
    assert len(calls) == 1
    eval_with_derivatives(counted, [(0.1, 0.2), (0.3, -0.4), (-0.5, 0.6)])
    assert len(calls) == 2

    charts = []
    chart = catalog_module._s6_chart
    monkeypatch.setattr(
        catalog_module, "_s6_chart", lambda u: charts.append(1) or chart(u)
    )
    s6 = catalog_module.catalog("s6-nearly-kahler")
    eval_with_derivatives(s6, SamplePlan(n_points=5).points(s6.domain))
    assert len(charts) == 1


def test_flat_fields_have_exactly_zero_derivatives():
    m = flat2(NORDEN, j=REFLECTION, g=[[1.0, 0.0], [0.0, -1.0]])
    g, dg, j, dj = eval_with_derivatives(m, (0.1, 0.4))
    assert inf_norm(dg) == 0.0
    assert inf_norm(dj) == 0.0
    assert g.shape == j.shape == (1, 2, 2)
    assert dg.shape == dj.shape == (1, 2, 2, 2)


def polar_like():
    # g = diag(1, x1^2) on a box with x1 around 2
    return ChartedManifold(
        name="polar",
        kind=HERMITIAN,
        dim=2,
        domain=Box((1.0, -1.0), (3.0, 1.0)),
        fields=lambda c: ([[1.0, 0.0 * c[0]], [0.0 * c[0], c[0] * c[0]]], ROTATION),
    )


def test_metric_derivative_matches_finite_differences():
    m = polar_like()
    point = (2.0, 0.0)
    _, dg, _, _ = eval_with_derivatives(m, point)
    assert dg[0, 0, 1, 1] == pytest.approx(4.0, rel=1e-12)
    assert dg[0, 1, 1, 1] == 0.0
    h = 1e-6
    g_hi, _ = evaluate_fields(m, (2.0 + h, 0.0))
    g_lo, _ = evaluate_fields(m, (2.0 - h, 0.0))
    fd = (g_hi[1, 1] - g_lo[1, 1]) / (2 * h)
    assert dg[0, 0, 1, 1] == pytest.approx(fd, rel=1e-5)


def test_validate_flat_structures_all_kinds():
    for kind in KINDS:
        g = np.eye(2).tolist()
        if kind == NORDEN:
            g = [[1.0, 0.0], [0.0, -1.0]]  # the rotation is an anti-isometry of it
            m = flat2(kind, g=g, j=ROTATION)
        elif kind == PARA_HERMITIAN:
            m = flat2(kind, g=[[0.0, 1.0], [1.0, 0.0]], j=REFLECTION)
        elif kind == HERMITIAN:
            m = flat2(kind, j=ROTATION)
        else:
            # trace-free product structure needs dimension 4 with identity
            # metric only if the split is even; in dim 2 use diag(1, -1)
            m = flat2(kind, j=REFLECTION)
        report = validate_structure(m, SamplePlan(n_points=10))
        assert report.valid, (kind.label, report.residuals, report.failures)
        assert all(v == 0.0 for v in report.residuals.values())
        assert report.min_abs_det == pytest.approx(1.0)


def test_validate_flags_wrong_square():
    # declared para-hermitian but J is a rotation: J^2 = -Id, not +Id
    m = flat2(PARA_HERMITIAN, g=[[0.0, 1.0], [1.0, 0.0]], j=ROTATION)
    report = validate_structure(m, SamplePlan(n_points=5))
    assert not report.valid
    assert "structure_squared" in report.failures
    assert report.residuals["structure_squared"] == pytest.approx(2.0)


def test_validate_flags_identity_structure_trace():
    m = flat2(PRODUCT_RIEMANNIAN, j=np.eye(2).tolist())
    report = validate_structure(m, SamplePlan(n_points=5))
    assert not report.valid
    assert "structure_trace" in report.failures
    assert report.residuals["structure_trace"] == pytest.approx(2.0)
    # every other axiom is fine for the identity
    assert report.residuals["structure_squared"] == 0.0
    assert report.residuals["metric_isometry"] == 0.0


def test_validate_flags_incompatible_metric():
    # rotation J with g = diag(1, 2): not an isometry
    m = flat2(HERMITIAN, g=[[1.0, 0.0], [0.0, 2.0]], j=ROTATION)
    report = validate_structure(m, SamplePlan(n_points=5))
    assert not report.valid
    assert "metric_isometry" in report.failures
    assert report.residuals["metric_isometry"] == pytest.approx(1.0)


def test_validate_raises_on_degenerate_metric():
    m = flat2(HERMITIAN, g=[[1e-6, 0.0], [0.0, 1e-6]], j=ROTATION)
    with pytest.raises(NearSingularMetric) as exc:
        validate_structure(m, SamplePlan(n_points=5))
    assert exc.value.point is not None


def test_validation_report_json_round_trip():
    m = flat2(HERMITIAN)
    report = validate_structure(m, SamplePlan(n_points=5))
    assert json.loads(report_json(report.to_dict())) == report.to_dict()
    text = report.render_text()
    assert "flat2" in text and "valid" in text


def test_malformed_field_output_is_flagged():
    bad = ChartedManifold(
        name="bad",
        kind=HERMITIAN,
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        fields=lambda c: ([[1.0, 0.0]], ROTATION),  # metric not 2x2
    )
    with pytest.raises(SlotMismatch):
        evaluate_fields(bad, (0.0, 0.0))


VALID_CONFIG = {
    "name": "tilted-flat",
    "kind": {"alpha": -1, "epsilon": 1},
    "dim": 2,
    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "metric": [["2", "0"], ["0", "2"]],
    "structure": [["0", "-1"], ["1", "0"]],
}


def write_config(tmp_path, data, name="manifold.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def test_load_manifold_config_round_trip(tmp_path):
    p = write_config(tmp_path, VALID_CONFIG)
    m = load_manifold_config(p)
    assert m.name == "tilted-flat"
    assert m.kind == HERMITIAN
    assert m.dim == 2
    g, j = evaluate_fields(m, (0.0, 0.0))
    assert np.array_equal(g, 2.0 * np.eye(2))
    report = validate_structure(m, SamplePlan(n_points=10))
    assert report.valid


def test_config_name_defaults_to_file_stem(tmp_path):
    data = dict(VALID_CONFIG)
    del data["name"]
    p = write_config(tmp_path, data, name="my-surface.json")
    assert load_manifold_config(p).name == "my-surface"


def test_config_with_coordinate_dependent_entries(tmp_path):
    data = {
        "kind": {"alpha": -1, "epsilon": 1},
        "dim": 2,
        "domain": {"lo": [0.5, -1.0], "hi": [2.0, 1.0]},
        "metric": [["1 + x1^2", "0"], ["0", "1 + x1^2"]],
        "structure": [["0", "-1"], ["1", "0"]],
    }
    m = load_manifold_config(write_config(tmp_path, data))
    g, _ = evaluate_fields(m, (1.0, 0.0))
    assert np.allclose(g, 2.0 * np.eye(2))
    _, dg, _, _ = eval_with_derivatives(m, (1.0, 0.0))
    assert dg[0, 0, 0, 0] == pytest.approx(2.0, rel=1e-12)
    assert validate_structure(m, SamplePlan(n_points=10)).valid


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("kind"), "'kind' is missing"),
        (lambda d: d.pop("dim"), "'dim' is missing"),
        (lambda d: d.pop("metric"), "'metric' must be"),
        (lambda d: d["kind"].pop("alpha"), "kind.alpha is missing"),
        (lambda d: d.update(dim="2"), "'dim' must be an integer"),
        (lambda d: d.update(dim=True), "'dim' must be an integer"),
        (lambda d: d["domain"].update(lo=[-1.0], hi=[1.0]), "domain length 1 but dim 2"),
        (lambda d: d.update(kind={"alpha": 2, "epsilon": 1}), "alpha and epsilon"),
        (lambda d: d["kind"].update(epsilon=1.9), "kind.epsilon is 1.9"),
        (lambda d: d["kind"].update(epsilon=1.0), "kind.epsilon is 1.0"),
        (lambda d: d["kind"].update(alpha=True, epsilon=True), "kind.alpha is true"),
        (lambda d: d["kind"].update(alpha="-1"), 'kind.alpha is "-1"'),
        (lambda d: d["kind"].update(epsilon=None), "kind.epsilon is null"),
        (lambda d: d.update(name=""), "name must be a non-empty string"),
        (lambda d: d["metric"][0].pop(), "must be a 2x2 array"),
        (lambda d: d["metric"][0].__setitem__(0, 3.0), "metric[0][0] must be a string"),
        (lambda d: d.update(domain={"lo": [-1.0, -1.0]}), "domain.hi must be a list"),
    ],
)
def test_config_errors_carry_diagnostics(tmp_path, mutate, needle):
    data = json.loads(json.dumps(VALID_CONFIG))
    mutate(data)
    p = write_config(tmp_path, data)
    with pytest.raises(ConfigError) as exc:
        load_manifold_config(p)
    assert needle in str(exc.value)
    assert str(p) in str(exc.value)


def test_config_rejects_invalid_json_and_non_objects(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError) as exc:
        load_manifold_config(p)
    assert "not valid JSON" in str(exc.value)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_manifold_config(p2)


def test_config_empty_domain_raises(tmp_path):
    data = json.loads(json.dumps(VALID_CONFIG))
    data["domain"] = {"lo": [1.0, -1.0], "hi": [1.0, 1.0]}
    with pytest.raises(DomainEmpty):
        load_manifold_config(write_config(tmp_path, data))


def test_config_expression_error_names_cell_and_position(tmp_path):
    data = json.loads(json.dumps(VALID_CONFIG))
    data["metric"][0][1] = "x1 +\n x9"
    p = write_config(tmp_path, data)
    with pytest.raises(ExpressionError) as exc:
        load_manifold_config(p)
    assert "metric[0][1]" in exc.value.message
    assert p.name in exc.value.message
    assert exc.value.line == 2
    assert exc.value.column == 2


# a Norden metric whose off-diagonal repeats and whose diagonal repeats
# the structure's entries: 4 distinct texts in 8 cells
REPEATED_CELLS = {
    "kind": {"alpha": -1, "epsilon": -1},
    "dim": 2,
    "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "metric": [["1", "x1*x2"], ["x1*x2", "-1"]],
    "structure": [["0", "-1"], ["1", "0"]],
}


def test_config_parses_each_distinct_cell_once_and_both_evaluators_agree(
    tmp_path, monkeypatch
):
    manifold_module = importlib.import_module("aegeom.manifold")
    parsed = []
    true_parse = manifold_module.parse_expression

    def counted(text, n_vars):
        parsed.append(text)
        return true_parse(text, n_vars)

    monkeypatch.setattr(manifold_module, "parse_expression", counted)
    m = load_manifold_config(write_config(tmp_path, REPEATED_CELLS))
    assert parsed == ["1", "x1*x2", "-1", "0"]
    points = np.array([[0.3, -0.4], [-0.7, 0.2]])
    g, dg, j, dj = eval_with_derivatives(m, points)
    for n, point in enumerate(points):
        g_n, j_n = evaluate_fields(m, point)
        assert np.array_equal(g[n], g_n) and np.array_equal(j[n], j_n)
        x1, x2 = point
        assert np.array_equal(g_n, [[1.0, x1 * x2], [x1 * x2, -1.0]])
        assert np.array_equal(dg[n, :, 0, 1], [x2, x1])
        assert np.array_equal(dg[n, :, 1, 0], [x2, x1])
    assert not dg[:, :, 0, 0].any() and not dj.any()
    assert validate_structure(m, SamplePlan(n_points=10)).valid


def test_a_repeated_bad_cell_is_named_at_its_first_place(tmp_path):
    data = json.loads(json.dumps(REPEATED_CELLS))
    data["metric"] = [["1 +", "0"], ["0", "1 +"]]
    with pytest.raises(ExpressionError) as exc:
        load_manifold_config(write_config(tmp_path, data))
    assert exc.value.message.startswith("metric[0][0] of ")
    data["metric"] = [["1", "x2/(x1-x1)"], ["x2/(x1-x1)", "-1"]]
    m = load_manifold_config(write_config(tmp_path, data))
    with pytest.raises(NonFiniteField, match=r"^metric\[0\]\[1\] of "):
        eval_with_derivatives(m, (0.5, 0.5))


def test_inf_norm_is_the_largest_absolute_component():
    assert inf_norm(np.array([[1.0, -4.0], [2.0, 0.5]])) == 4.0
