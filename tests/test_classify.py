"""Condition residuals, verdicts, theorem checks, and the summary table."""

import json

import numpy as np
import pytest

from aegeom import algebra
from aegeom.algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    closed_form_dimension,
    dimension_table,
    standard_fibers,
    subspace_dimension,
)
from aegeom.catalog import catalog, standard_names
from aegeom.classify import (
    CONDITIONS,
    SIGN_CONDITIONS,
    THEOREMS,
    VERDICT_TOL,
    Theorem,
    _theorem_check,
    classify,
    condition_table,
    render_condition_table,
    sample_residuals,
)
from aegeom.errors import TheoremViolation
from aegeom.manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
    SamplePlan,
    report_json,
)
from support import system_from_rows

PLAN = SamplePlan(seed=0, n_points=8)
BUILD = algebra.build_constraints


def table_for(plan=PLAN):
    # the class table over a dimension table built now, under any patches
    return condition_table(plan, VERDICT_TOL, dimension_table(standard_fibers()))


def both_routes_report(monkeypatch, value, wrong):
    """Both rank routes find ``value`` wherever ``wrong(fiber, query)`` holds.

    The builder hands them a system of that nullity in place of the true
    one, so they agree and only the closed form can catch the value.
    """

    def build(fiber, query):
        if wrong(fiber, query):
            # value free unknowns and one pinned to zero
            return system_from_rows(value + 1, [[(value, 1.0)]])
        return BUILD(fiber, query)

    monkeypatch.setattr(algebra, "build_constraints", build)


def test_residual_keys_match_the_condition_list():
    res = sample_residuals(catalog("flat-kahler"), PLAN)
    assert tuple(res) == CONDITIONS


def test_flat_entries_satisfy_every_condition():
    for name in (
        "flat-kahler",
        "flat-product-riemannian",
        "flat-anti-kahler",
        "flat-para-kahler",
    ):
        report = classify(catalog(name), PLAN)
        assert all(report.verdicts.values()), name
        assert all(v < 1e-12 for v in report.residuals.values()), name
        assert all(c.status == "passed" for c in report.theorem_checks), name


def test_six_sphere_is_nearly_but_not_kahler_type():
    report = classify(catalog("s6-nearly-kahler"), PLAN)
    v = report.verdicts
    assert v["nearly"] and v["torsion_pairing_skew"]
    assert not v["kahler_type"]
    assert not v["integrable"]
    assert not v["codazzi"]
    assert not v["canonical_torsion"]
    assert report.residuals["kahler_type"] > 0.1
    assert report.residuals["integrable"] > 1.0
    assert report.residuals["nearly"] < 1e-10


def test_six_sphere_theorem_statuses():
    report = classify(catalog("s6-nearly-kahler"), PLAN)
    checks = {c.name: c.status for c in report.theorem_checks}
    assert checks["kahler_type_iff_torsion_free"] == "hypothesis not met"
    assert checks["integrable_iff_torsion_shift_vanishes"] == "hypothesis not met"
    assert checks["nearly_iff_torsion_pairing_skew"] == "passed"
    assert checks["codazzi_forces_kahler_type"] == "hypothesis not met"


def test_pullback_entries_are_integrable_not_kahler_type():
    for label in ("hermitian", "product-riemannian", "norden", "para-hermitian"):
        report = classify(catalog(f"pullback-integrable-{label}"), PLAN)
        assert report.verdicts["integrable"], label
        assert report.verdicts["torsion_shift"], label
        assert not report.verdicts["kahler_type"], label
        assert not report.verdicts["nearly"], label
        assert not report.verdicts["codazzi"], label


def test_surface_entries_with_antisymmetric_pairing_are_parallel():
    # on a surface the paired form of these two kinds is a top form, so
    # the structure is parallel for every compatible metric
    for name in ("random-hermitian-13", "random-para-hermitian-5"):
        report = classify(catalog(name), PLAN)
        assert all(report.verdicts.values()), name


def test_random_norden_fails_kahler_and_codazzi():
    report = classify(catalog("random-norden-42"), PLAN)
    assert not report.verdicts["kahler_type"]
    assert not report.verdicts["codazzi"]
    assert report.residuals["codazzi"] > 1e-3


def test_verdicts_mirror_residuals_against_tolerance():
    for name in standard_names():
        report = classify(catalog(name), PLAN)
        for key in CONDITIONS:
            assert report.verdicts[key] == (report.residuals[key] < report.tol)


def test_torsion_free_and_codazzi_verdicts_agree_everywhere():
    # the torsion is a fixed rotation of the codazzi defect, so the two
    # vanish together on every entry
    for name in standard_names():
        report = classify(catalog(name), PLAN)
        assert report.verdicts["canonical_torsion"] == report.verdicts["codazzi"], name


def test_theorem_suite_runs_clean_on_every_entry():
    for name in standard_names():
        checks = classify(catalog(name), PLAN).theorem_checks
        assert len(checks) == 4
        for check in checks:
            assert check.status in ("passed", "hypothesis not met")
            assert check.details


def test_wrong_subspace_dimension_is_a_theorem_violation(monkeypatch):
    def patch(wrong_query, value):
        # every other query keeps its true system
        both_routes_report(monkeypatch, value, lambda fiber, q: q is wrong_query)

    # the symmetric subspace must be zero for every kind
    patch(SubspaceQuery.SYMMETRIC, 1)
    with pytest.raises(TheoremViolation, match="symmetric"):
        classify(catalog("flat-kahler"), PLAN).theorem_checks
    with pytest.raises(TheoremViolation, match="symmetric.*closed form gives 0"):
        table_for()
    # the alternating one is nonzero in six dimensions for alpha*epsilon = -1
    patch(SubspaceQuery.ALTERNATING, 0)
    with pytest.raises(
        TheoremViolation, match="alternating.*hermitian, n=3; the closed form gives 2"
    ):
        table_for()
    # and the full one is checked too
    patch(SubspaceQuery.FULL, 7)
    with pytest.raises(TheoremViolation, match="full subspace has dimension 7"):
        table_for()


def test_sign_pattern_accepts_every_true_dimension():
    # every computed cell equals the closed form, the full subspace and the
    # alternating one below the largest fiber included
    table = dimension_table(standard_fibers())
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            for query in SubspaceQuery:
                value = table[kind.label][n][query.value]
                assert value == closed_form_dimension(kind, n, query)
    for n in (1, 2):
        assert table[HERMITIAN.label][n][SubspaceQuery.ALTERNATING.value] == 0


def test_sign_pattern_rejects_each_wrong_cell(monkeypatch):
    for kind, n, query, value, expected in (
        (HERMITIAN, 1, SubspaceQuery.SYMMETRIC, 1, 0),
        (NORDEN, 2, SubspaceQuery.ALTERNATING, 3, 0),
        (PARA_HERMITIAN, MAX_HALF_DIM, SubspaceQuery.ALTERNATING, 0, 2),
        (NORDEN, 2, SubspaceQuery.FULL, 8, 16),
        (HERMITIAN, 3, SubspaceQuery.FULL, 54, 36),
    ):
        both_routes_report(monkeypatch, value, lambda fiber, q: q is query)
        with pytest.raises(
            TheoremViolation, match=f"n={n}; the closed form gives {expected}$"
        ):
            subspace_dimension(ModelFiber.standard(kind, n), query)


def test_wrong_alternating_value_below_the_largest_fiber_is_caught(monkeypatch):
    # alpha*epsilon = -1 below n = MAX_HALF_DIM used to pass any value
    alternating = SubspaceQuery.ALTERNATING
    both_routes_report(
        monkeypatch, 4, lambda fiber, q: q is alternating and fiber.n == 2
    )
    with pytest.raises(TheoremViolation, match="hermitian, n=2"):
        subspace_dimension(ModelFiber.standard(HERMITIAN, 2), alternating)
    with pytest.raises(TheoremViolation, match="alternating_first_two subspace"):
        table_for()


def test_closed_forms_follow_the_gray_hervella_count():
    # alpha*epsilon = -1: the alternating part is the realified (3,0)-forms
    for n, w1 in ((1, 0), (2, 0), (3, 2), (4, 8), (5, 20)):
        for kind in (HERMITIAN, PARA_HERMITIAN):
            assert closed_form_dimension(kind, n, SubspaceQuery.ALTERNATING) == w1
        assert closed_form_dimension(NORDEN, n, SubspaceQuery.ALTERNATING) == 0
    for kind in KINDS:
        assert closed_form_dimension(kind, 4, SubspaceQuery.SYMMETRIC) == 0
    assert closed_form_dimension(HERMITIAN, 4, SubspaceQuery.FULL) == 96
    assert closed_form_dimension(PRODUCT_RIEMANNIAN, 4, SubspaceQuery.FULL) == 128


def test_codazzi_check_carries_the_subspace_note():
    checks = classify(catalog("flat-kahler"), PLAN).theorem_checks
    codazzi = next(c for c in checks if c.name == "codazzi_forces_kahler_type")
    assert "symmetric_first_two subspace dimension 0 (n=1)" in codazzi.details


def statuses(name):
    return {c.name: c for c in classify(catalog(name), PLAN).theorem_checks}


def test_nearly_verifier_requires_matching_signs():
    # the nearly check that collapses to Kahler type runs only when the
    # signs agree, the torsion pairing one only when they differ
    for name in ("flat-kahler", "flat-anti-kahler"):
        kind = catalog(name).kind
        checks = statuses(name)
        assert ("nearly_forces_kahler_type" in checks) == (kind.product == 1)
        assert ("nearly_iff_torsion_pairing_skew" in checks) == (kind.product == -1)


def test_nearly_verifier_statuses():
    passed = statuses("s6-nearly-kahler")["nearly_iff_torsion_pairing_skew"]
    assert passed.status == "passed"
    vacuous = statuses("random-product-riemannian-7")["nearly_forces_kahler_type"]
    assert vacuous.status == "hypothesis not met"
    assert "alternating_first_two subspace dimension 0" in vacuous.details


def test_codazzi_verifier_statuses():
    codazzi = "codazzi_forces_kahler_type"
    assert statuses("flat-para-kahler")[codazzi].status == "passed"
    assert statuses("s6-nearly-kahler")[codazzi].status == "hypothesis not met"


def test_torsion_verifier_passes_on_flat_and_random_entries():
    torsion_checks = (
        "kahler_type_iff_torsion_free",
        "integrable_iff_torsion_shift_vanishes",
    )
    for name in ("flat-anti-kahler", "random-norden-42"):
        checks = statuses(name)
        for check in torsion_checks:
            assert checks[check].status in ("passed", "hypothesis not met"), name


@pytest.mark.parametrize("converse", [False, True])
def test_theorem_check_zones(converse):
    row = Theorem("demo", (1, -1), "nearly", "kahler_type", converse)

    def check(hyp, con):
        return _theorem_check(row, {"nearly": hyp, "kahler_type": con}, 1e-8)

    ok = check(0.0, 0.0)
    assert ok.status == "passed"
    assert ok.details == (
        "nearly residual 0.000e+00, structure derivative residual 0.000e+00, "
        "tol 1.0e-08"
    )
    assert check(0.0, 5e-8).status == "passed"  # within the slack band
    assert check(1.0, 1.0).status == "hypothesis not met"
    with pytest.raises(TheoremViolation, match="^demo: nearly residual"):
        check(0.0, 1.0)
    # the converse direction: only a biconditional reads it
    if converse:
        with pytest.raises(TheoremViolation):
            check(1.0, 0.0)
        assert check(5e-8, 0.0).status == "passed"
    else:
        assert check(1.0, 0.0).status == "hypothesis not met"


def test_report_json_round_trip_and_determinism():
    m = catalog("random-norden-42")
    r1 = classify(m, PLAN)
    r2 = classify(m, PLAN)
    assert report_json(r1.to_dict()) == report_json(r2.to_dict())
    assert json.loads(report_json(r1.to_dict())) == r1.to_dict()


def test_report_serialization_carries_kind_and_sample():
    report = classify(catalog("s6-nearly-kahler"), PLAN)
    data = report.to_dict()
    assert data["kind"] == {"alpha": -1, "epsilon": 1, "label": "hermitian"}
    assert data["sample"] == {"seed": 0, "n_points": 8}
    text = report.render_text()
    assert "s6-nearly-kahler" in text
    assert "nearly" in text
    assert "holds" in text and "fails" in text


def test_residuals_grow_monotonically_with_prefix_plans():
    m = catalog("s6-nearly-kahler")
    small = sample_residuals(m, SamplePlan(seed=0, n_points=3))
    large = sample_residuals(m, SamplePlan(seed=0, n_points=8))
    for key in CONDITIONS:
        assert large[key] >= small[key] - 1e-15


def test_condition_table_shape_and_classes():
    table = table_for()
    assert table["half_dimension"] == 3
    assert "nabla_x" in table["plus_sign_condition"]
    cells = table["cells"]
    assert set(cells) == {
        "hermitian",
        "product-riemannian",
        "norden",
        "para-hermitian",
    }
    for label in ("hermitian", "para-hermitian"):
        assert cells[label]["plus_sign"]["class"] == "nearly Kahler type"
        assert cells[label]["plus_sign"]["subspace_dimension"] == 2
        assert cells[label]["minus_sign"]["class"] == "Kahler type"
        assert cells[label]["minus_sign"]["subspace_dimension"] == 0
    for label in ("norden", "product-riemannian"):
        assert cells[label]["plus_sign"]["class"] == "Kahler type"
        assert cells[label]["plus_sign"]["subspace_dimension"] == 0
        assert cells[label]["minus_sign"]["subspace_dimension"] == 0


def test_class_follows_the_subspace_dimension(monkeypatch):
    def patch(query, value):
        # both rank routes and the closed form agree on the patched value
        def closed_form(kind, n, q):
            return value if q is query else closed_form_dimension(kind, n, q)

        monkeypatch.setattr(algebra, "closed_form_dimension", closed_form)
        both_routes_report(monkeypatch, value, lambda fiber, q: q is query)

    patch(SubspaceQuery.ALTERNATING, 0)
    cells = table_for()["cells"]
    for label in ("hermitian", "para-hermitian"):
        assert cells[label]["plus_sign"]["subspace_dimension"] == 0
        assert cells[label]["plus_sign"]["class"] == "Kahler type"
    patch(SubspaceQuery.SYMMETRIC, 1)
    cells = table_for()["cells"]
    for kind in KINDS:
        assert cells[kind.label]["minus_sign"]["subspace_dimension"] == 1
        assert cells[kind.label]["minus_sign"]["class"] == "Kahler-Codazzi type"


def test_condition_table_records_entry_checks():
    table = table_for()
    cells = table["cells"]
    hermitian_plus = cells["hermitian"]["plus_sign"]["entry_checks"]
    assert hermitian_plus["s6-nearly-kahler"] == "passed"
    assert hermitian_plus["flat-kahler"] == "passed"
    norden_minus = cells["norden"]["minus_sign"]["entry_checks"]
    assert norden_minus["random-norden-42"] == "hypothesis not met"
    assert norden_minus["flat-anti-kahler"] == "passed"


def test_entry_checks_match_the_classify_status_of_the_condition_row():
    # a cell's status on an entry is the one classify reports for the theorem
    # row whose hypothesis is the condition of the cell's subspace
    cells = table_for()["cells"]
    seen = set()
    for name in standard_names():
        m = catalog(name)
        by_row = {c.name: c.status for c in classify(m, PLAN).theorem_checks}
        for key, _, query, _ in SIGN_CONDITIONS:
            (row,) = (
                row
                for row in THEOREMS
                if row.hypothesis == query.condition and m.kind.product in row.products
            )
            status = cells[m.kind.label][key]["entry_checks"][name]
            assert status == by_row[row.name], (name, key)
            seen.add((name, key))
    assert len(seen) == 2 * len(standard_names())


def test_condition_table_renders_to_text():
    text = render_condition_table(table_for())
    assert "plus sign" in text
    assert "nearly Kahler type" in text
    assert "hermitian" in text
