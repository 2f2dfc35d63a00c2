"""Connections, torsion, Nijenhuis, and the pointwise identity suite.

The Christoffel coefficients are checked against an independent oracle that
differentiates the metric by central differences and applies the explicit
inverse-metric formula, sharing no code with the dual-number route.
"""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from test_batched import manifolds

from aegeom import connection
from aegeom.catalog import catalog, standard_names
from aegeom.classify import sample_residuals
from aegeom.connection import (
    christoffel,
    derived_tensors,
    identity_residuals,
    vector_triples,
)
from aegeom.errors import (
    FormulaMismatch,
    InvalidStructure,
    NearSingularMetric,
    NijenhuisFormulaMismatch,
    NonFiniteField,
    PointOutsideDomain,
    TorsionFormulaMismatch,
)
from aegeom.manifold import (
    HERMITIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    StructureKind,
    eval_with_derivatives,
    evaluate_fields,
    inf_norm,
    load_manifold_config,
)
from support import fd_christoffel, polar_like

SMALL = SamplePlan(seed=0, n_points=6)


def codazzi_parts(m, point):
    """(structure part, metric part) of the coupled Codazzi equations.

    The structure part is the antisymmetrized covariant derivative of J;
    the metric part, that of g, vanishes for the metric connection.
    """
    nj = derived_tensors(m, point)["nabla_j"]
    r_j = inf_norm(nj - np.einsum("njik->nkij", nj))
    triples = vector_triples(0, 1, m.dim)
    return r_j, identity_residuals(m, point, triples)["codazzi_nabla_g"]


def test_flat_connection_vanishes_exactly():
    for name in ("flat-kahler", "flat-anti-kahler"):
        m = catalog(name)
        assert inf_norm(christoffel(m, (0.3, -0.2))) == 0.0
        assert inf_norm(derived_tensors(m, (0.3, -0.2))["gamma0"]) == 0.0


def test_polar_metric_christoffel_closed_form():
    m = polar_like()
    gamma = christoffel(m, (2.0, 0.0))[0]
    # radial coordinate first: gamma^r_tt = -r, gamma^t_rt = 1/r
    assert gamma[0, 1, 1] == pytest.approx(-2.0, rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.5, rel=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(0.5, rel=1e-12)
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_polar_metric_christoffel_matches_finite_differences():
    m = polar_like()
    points = ((2.0, 0.0), (1.5, 0.3), (2.8, -0.4))
    for point, mine in zip(points, christoffel(m, points)):
        oracle = fd_christoffel(m, point)
        scale = max(1.0, float(np.max(np.abs(mine))))
        assert np.max(np.abs(mine - oracle)) < 1e-5 * scale


def test_catalog_christoffel_matches_finite_differences():
    for name in ("s6-nearly-kahler", "random-norden-42", "pullback-integrable-norden"):
        m = catalog(name)
        points = SMALL.points(m.domain)[:3]
        for point, mine in zip(points, christoffel(m, points)):
            oracle = fd_christoffel(m, point)
            scale = max(1.0, float(np.max(np.abs(mine))))
            assert np.max(np.abs(mine - oracle)) < 1e-5 * scale, name


def test_christoffel_is_symmetric_and_metric_compatible():
    for name in ("s6-nearly-kahler", "random-product-riemannian-7"):
        m = catalog(name)
        points = SMALL.points(m.domain)[:3]
        g, dg, _, _ = eval_with_derivatives(m, points)
        for n, gamma in enumerate(christoffel(m, points)):
            assert np.max(np.abs(gamma - np.einsum("kij->kji", gamma))) < 1e-10
            cov = (
                dg[n]
                - np.einsum("aki,aj->kij", gamma, g[n])
                - np.einsum("akj,ia->kij", gamma, g[n])
            )
            assert np.max(np.abs(cov)) < 1e-8, name


def test_structure_derivative_vanishes_on_flat_entries():
    m = catalog("flat-para-kahler")
    assert inf_norm(derived_tensors(m, (0.1, 0.8))["nabla_j"]) == 0.0


def test_structure_derivative_shape_and_magnitude():
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[0]
    nj = derived_tensors(m, point)["nabla_j"]
    assert nj.shape == (1, 6, 6, 6)
    assert inf_norm(nj) > 1e-3


def test_nearly_property_on_the_six_sphere():
    m = catalog("s6-nearly-kahler")
    vectors = vector_triples(2, 20, 6)
    for nj in derived_tensors(m, SMALL.points(m.domain)[:4])["nabla_j"]:
        sym = nj + np.einsum("jik->kij", nj)
        assert np.max(np.abs(sym)) < 1e-8
        for triple in vectors:
            x = triple[0]
            probe = np.einsum("kij,k,j->i", nj, x, x)
            assert np.max(np.abs(probe)) < 1e-8


def test_canonical_connection_preserves_both_fields():
    # recompose the parallelism residuals from public pieces
    for name in ("random-norden-42", "pullback-integrable-para-hermitian"):
        m = catalog(name)
        points = SMALL.points(m.domain)[:3]
        g, dg, j, dj = eval_with_derivatives(m, points)
        for n, gamma0 in enumerate(derived_tensors(m, points)["gamma0"]):
            cov_j = (
                dj[n]
                + np.einsum("ika,aj->kij", gamma0, j[n])
                - np.einsum("akj,ia->kij", gamma0, j[n])
            )
            cov_g = (
                dg[n]
                - np.einsum("aki,aj->kij", gamma0, g[n])
                - np.einsum("akj,ia->kij", gamma0, g[n])
            )
            assert np.max(np.abs(cov_j)) < 1e-8, name
            assert np.max(np.abs(cov_g)) < 1e-8, name


def test_canonical_connection_differs_from_metric_one_when_j_varies():
    m = catalog("random-product-riemannian-7")
    point = SMALL.points(m.domain)[0]
    plain = christoffel(m, point)[0]
    adapted = derived_tensors(m, point)["gamma0"][0]
    assert np.max(np.abs(plain - adapted)) > 1e-3


def test_canonical_torsion_antisymmetry_and_flat_vanishing():
    m = catalog("flat-product-riemannian")
    assert inf_norm(derived_tensors(m, (0.4, 0.4))["torsion"]) == 0.0
    m2 = catalog("s6-nearly-kahler")
    point = SMALL.points(m2.domain)[1]
    t = derived_tensors(m2, point)["torsion"][0]
    swap = t + np.einsum("ijk->ikj", t)
    assert np.max(np.abs(swap)) < 1e-12
    assert inf_norm(t) > 1e-3


def test_canonical_torsion_matches_structure_rotation_routes():
    # rebuild both closed forms from the public structure derivative
    for name in ("s6-nearly-kahler", "random-hermitian-13", "random-norden-42"):
        m = catalog(name)
        alpha = m.kind.alpha
        points = SMALL.points(m.domain)[:3]
        arrays = derived_tensors(m, points)
        for n, point in enumerate(points):
            t = arrays["torsion"][n]
            nj = arrays["nabla_j"][n]
            _, j = evaluate_fields(m, point)
            shifted = (-alpha / 2.0) * (
                np.einsum("jia,ak->ijk", nj, j) - np.einsum("kia,aj->ijk", nj, j)
            )
            rotated = (alpha / 2.0) * (
                np.einsum("ia,jak->ijk", j, nj) - np.einsum("ia,kaj->ijk", j, nj)
            )
            assert np.max(np.abs(t - shifted)) < 1e-9, name
            assert np.max(np.abs(t - rotated)) < 1e-9, name


def test_torsion_pairing_is_skew_on_the_six_sphere():
    m = catalog("s6-nearly-kahler")
    vectors = vector_triples(4, 20, 6)
    points = SMALL.points(m.domain)[:4]
    for point, t in zip(points, derived_tensors(m, points)["torsion"]):
        g, _ = evaluate_fields(m, point)
        for triple in vectors:
            x, y = triple[0], triple[1]
            val = float(np.einsum("ia,ijk,j,k,a->", g, t, x, y, x))
            assert abs(val) < 1e-8


def test_nijenhuis_vanishes_on_flat_and_pullback_entries():
    for name in (
        "flat-kahler",
        "pullback-integrable-hermitian",
        "pullback-integrable-norden",
        "pullback-integrable-product-riemannian",
        "pullback-integrable-para-hermitian",
    ):
        m = catalog(name)
        for n in derived_tensors(m, SMALL.points(m.domain)[:3])["nijenhuis"]:
            assert inf_norm(n) < 1e-8, name


def test_pullback_entries_are_curved_but_integrable():
    for label in ("hermitian", "norden"):
        m = catalog(f"pullback-integrable-{label}")
        point = SMALL.points(m.domain)[0]
        arrays = derived_tensors(m, point)
        assert inf_norm(arrays["nabla_j"]) > 1e-3
        assert inf_norm(arrays["nijenhuis"]) < 1e-8


def test_nijenhuis_does_not_vanish_on_the_six_sphere():
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[0]
    n = derived_tensors(m, point)["nijenhuis"][0]
    assert inf_norm(n) > 0.1
    swap = n + np.einsum("ijk->ikj", n)
    assert np.max(np.abs(swap)) < 1e-12


def test_torsion_carries_the_nijenhuis_relation():
    # J-shifted torsion plus alpha times torsion equals minus half Nijenhuis
    for name in ("s6-nearly-kahler", "random-para-hermitian-5"):
        m = catalog(name)
        alpha = m.kind.alpha
        points = SMALL.points(m.domain)[:3]
        arrays = derived_tensors(m, points)
        for index, point in enumerate(points):
            t = arrays["torsion"][index]
            n = arrays["nijenhuis"][index]
            _, j = evaluate_fields(m, point)
            shift = np.einsum("aj,bk,iab->ijk", j, j, t) + alpha * t
            assert np.max(np.abs(shift + 0.5 * n)) < 1e-8, name


def test_rotated_codazzi_defect_reproduces_torsion():
    for name in ("s6-nearly-kahler", "random-norden-42", "random-hermitian-13"):
        m = catalog(name)
        alpha = m.kind.alpha
        points = SMALL.points(m.domain)[:3]
        arrays = derived_tensors(m, points)
        for n, point in enumerate(points):
            nj = arrays["nabla_j"][n]
            _, j = evaluate_fields(m, point)
            t = arrays["torsion"][n]
            defect = nj - np.einsum("jik->kij", nj)
            rebuilt = (alpha / 2.0) * np.einsum("ia,jak->ijk", j, defect)
            assert np.max(np.abs(rebuilt - t)) < 1e-9, name


def test_derived_tensors_bundle_is_consistent():
    # the checked pass returns six stacks over the same points; its g and
    # its structure derivative recompose from the unchecked public pieces
    for name in standard_names():
        m = catalog(name)
        points = SMALL.points(m.domain)[:2]
        arrays = derived_tensors(m, points)
        assert set(arrays) == {
            "g",
            "gamma0",
            "nabla_j",
            "torsion",
            "torsion_shift",
            "nijenhuis",
        }
        d = m.dim
        for key, value in arrays.items():
            assert value.shape == (2,) + (d,) * (value.ndim - 1), (name, key)
        g, _, j, dj = eval_with_derivatives(m, points)
        gamma = christoffel(m, points)
        nj = (
            dj
            + np.einsum("nika,naj->nkij", gamma, j)
            - np.einsum("nakj,nia->nkij", gamma, j)
        )
        assert np.array_equal(arrays["g"], g), name
        # the stacked products may sum in another order than einsum
        slack = 1e-14 * np.maximum(1.0, np.abs(nj))
        assert np.all(np.abs(arrays["nabla_j"] - nj) <= slack), name


def test_every_checked_point_function_runs_every_cross_check(monkeypatch):
    # a zero tolerance fails the torsion check (the second cross-check) at
    # every point, even for a residual of exactly zero
    monkeypatch.setattr(connection, "TORSION_AGREEMENT_TOL", 0.0)
    m = catalog("s6-nearly-kahler")
    points = SMALL.points(m.domain)
    for where in (points[0], points):
        with pytest.raises(TorsionFormulaMismatch, match="^s6-nearly-kahler: "):
            derived_tensors(m, where)
    with pytest.raises(TorsionFormulaMismatch, match="^s6-nearly-kahler: "):
        sample_residuals(m, SMALL)


def test_codazzi_coupled_residuals_split():
    m_flat = catalog("flat-product-riemannian")
    r_j, r_g = codazzi_parts(m_flat, (0.2, -0.2))
    assert r_j == 0.0 and r_g == 0.0
    m = catalog("random-norden-42")
    point = SMALL.points(m.domain)[0]
    r_j, r_g = codazzi_parts(m, point)
    assert r_g < 1e-10  # metric part is an identity for the metric connection
    assert r_j > 1e-3


def test_codazzi_defect_doubles_on_nearly_structures():
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[2]
    r_j, _ = codazzi_parts(m, point)
    nj = derived_tensors(m, point)["nabla_j"][0]
    defect = nj - np.einsum("jik->kij", nj)
    assert r_j == pytest.approx(float(np.max(np.abs(2.0 * nj))), abs=1e-8)
    assert np.max(np.abs(defect - 2.0 * nj)) < 1e-8


def test_identity_suite_on_every_catalog_entry():
    for name in standard_names():
        m = catalog(name)
        vectors = vector_triples(1, 5, m.dim)
        for point in SMALL.points(m.domain)[:2]:
            res = identity_residuals(m, point, vectors)
            for key, val in res.items():
                assert val < 1e-8, (name, key, val)
            assert "pairing_swap" in res
            assert "pairing_swap_on_vectors" in res
            assert "twin_codazzi_match" in res
            has_form = "fundamental_form_antisymmetry" in res
            assert has_form == (m.kind.product == -1), name


def crooked():
    # declared structure squares to diag(1, 4), not -Id, at every point
    return ChartedManifold(
        name="crooked",
        kind=HERMITIAN,
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        fields=lambda c: (
            [[1.0 + c[1] * c[1], 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 2.0]],
        ),
    )


def test_structure_that_fails_its_own_square_is_rejected():
    with pytest.raises(InvalidStructure, match="structure_squared axiom"):
        derived_tensors(crooked(), (0.3, 0.4))


def test_crooked_sweep_names_the_first_sampled_point():
    m = crooked()
    plan = SamplePlan(n_points=5)
    first = tuple(float(x) for x in plan.points(m.domain)[0])
    with pytest.raises(InvalidStructure) as caught:
        sample_residuals(m, plan)
    assert str(caught.value).startswith("crooked: structure_squared axiom")
    assert str(first) in str(caught.value)


def test_unchecked_passes_accept_a_structure_that_fails_its_axioms():
    # the metric connection needs no structure; the identities assume the
    # axioms and check them
    m = crooked()
    assert inf_norm(christoffel(m, (0.3, 0.4))) > 0.0
    with pytest.raises(InvalidStructure, match=r"^crooked: structure_squared axiom"):
        identity_residuals(m, (0.3, 0.4), vector_triples(0, 1, 2))


def field_config(tmp_path, metric_00="1", structure_01="-1"):
    path = tmp_path / "fields.json"
    path.write_text(
        json.dumps(
            {
                "name": "badj",
                "kind": {"alpha": -1, "epsilon": 1},
                "dim": 2,
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                "metric": [[metric_00, "0"], ["0", "1"]],
                "structure": [["0", structure_01], ["1", "0"]],
            }
        )
    )
    return load_manifold_config(path)


@pytest.mark.parametrize(
    "fields, point, error, message",
    [
        ({}, (1.5, 0.2), PointOutsideDomain, r"point \(1\.5, 0\.2\) not inside badj"),
        (
            {"structure_01": "-1 + 1/(x1-x1)"},
            (0.1, 0.2),
            NonFiniteField,
            r"^structure\[0\]\[1\] of badj has a non-finite value or derivative "
            r"at point \(0\.1, 0\.2\)",
        ),
        (
            {"metric_00": "1 + 1/(x1-x1)"},
            (0.1, 0.2),
            NonFiniteField,
            r"^metric\[0\]\[0\] of badj .* at point \(0\.1, 0\.2\)",
        ),
        (
            {"metric_00": "x1"},
            (0.0, 0.2),
            NearSingularMetric,
            r"^\|det g\| = 0\.000e\+00 at point \(0\.0, 0\.2\) of badj",
        ),
    ],
)
def test_christoffel_checks_both_fields(tmp_path, fields, point, error, message):
    # no structure axiom is checked, but both fields are evaluated first
    m = field_config(tmp_path, **fields)
    with pytest.raises(error, match=message):
        christoffel(m, point)


def test_cross_check_failures_name_the_manifold(monkeypatch):
    monkeypatch.setattr(connection, "PARALLEL_TOL", 0.0)
    with pytest.raises(FormulaMismatch, match=r"^s6-nearly-kahler: \(nabla J\)"):
        derived_tensors(catalog("s6-nearly-kahler"), (0.1, 0.2, 0.3, 0.1, 0.2, 0.3))


def einsum_reference(m, points):
    """Every derived stack and identity tensor, in per-index einsum spellings.

    The oracle for the stacked matrix products of ``connection``: it shares
    only the field evaluation with them, and runs no check.
    """
    g, dg, j, dj = eval_with_derivatives(m, points)
    n, d = g.shape[:2]
    alpha, ae = m.kind.alpha, m.kind.product
    rhs = np.einsum("nilj->nlij", dg) + np.einsum("njil->nlij", dg) - dg
    gamma = 0.5 * np.linalg.solve(g, rhs.reshape(n, d, d * d)).reshape(n, d, d, d)

    def cov_metric(dform, gam, form):
        return (
            dform
            - np.einsum("naki,naj->nkij", gam, form)
            - np.einsum("nakj,nia->nkij", gam, form)
        )

    nj = (
        dj
        + np.einsum("nika,naj->nkij", gamma, j)
        - np.einsum("nakj,nia->nkij", gamma, j)
    )
    gamma0 = gamma + (-alpha / 2.0) * np.einsum("nika,naj->nkij", nj, j)
    torsion = gamma0 - np.einsum("nikj->nijk", gamma0)
    derived = {
        "g": g,
        "gamma0": gamma0,
        "nabla_j": nj,
        "torsion": torsion,
        "torsion_shift": np.einsum("naj,nbk,niab->nijk", j, j, torsion)
        + alpha * torsion,
        "nijenhuis": np.einsum("njia,nak->nijk", nj, j)
        + np.einsum("naj,naik->nijk", j, nj)
        - np.einsum("nkia,naj->nijk", nj, j)
        - np.einsum("nak,naij->nijk", j, nj),
    }

    twin = np.einsum("nai,naj->nij", j, g)
    paired = np.einsum("naj,nkai->nkij", g, nj)
    dtwin = np.einsum("nkai,naj->nkij", dj, g) + np.einsum("nai,nkaj->nkij", j, dg)
    cov_twin = cov_metric(dtwin, gamma, twin)
    codazzi_j = nj - np.einsum("njik->nkij", nj)
    nabla_g = cov_metric(dg, gamma, g)
    identities = {
        "pairing_swap": twin - ae * np.einsum("nib,nbj->nij", g, j),
        "anticommute": np.einsum("nkia,naj->nkij", nj, j)
        + np.einsum("nia,nkaj->nkij", j, nj),
        "pairing_symmetry": paired - ae * np.einsum("nkij->nkji", paired),
        "pairing_j_shift": np.einsum("naj,nkab,nbi->nkij", g, nj, j)
        + ae * np.einsum("nab,nbj,nkai->nkij", g, j, nj),
        "twin_codazzi_match": cov_twin
        - np.einsum("nikj->nkij", cov_twin)
        - np.einsum("naj,nkai->nkij", g, codazzi_j),
        "nabla_g": nabla_g,
        "codazzi_nabla_g": nabla_g - np.einsum("nikj->nkij", nabla_g),
    }
    if ae == -1:
        identities["fundamental_form_antisymmetry"] = twin + twin.transpose(0, 2, 1)
        nearly_form = cov_twin + np.einsum("nikj->nkij", cov_twin)
        nearly_j = nj + np.einsum("njik->nkij", nj)
        identities["fundamental_form_nearly_match"] = nearly_form - np.einsum(
            "naj,nkai->nkij", g, nearly_j
        )
    return derived, identities


def einsum_on_vectors(tensor, triples):
    x, y, z = triples[:, 0], triples[:, 1], triples[:, 2]
    flat = tensor.reshape(len(tensor), -1)
    if tensor.ndim == 3:
        probes = np.einsum("ti,tj->tij", x, y)
    else:
        probes = np.einsum("tk,tij->tkij", x, np.einsum("ti,tj->tij", y, z))
    return np.einsum("nc,tc->nt", flat, probes.reshape(len(triples), -1))


def assert_close(got, want, what):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * scale, what


@pytest.mark.parametrize("flip", [False, True])
def test_stacked_products_match_the_einsum_formulas(monkeypatch, tmp_path, flip):
    # flipping alpha flips alpha*epsilon too; the axioms then fail and the
    # identities stop vanishing, so the unchecked pass compares tensors of
    # order one instead of round-off
    if flip:
        monkeypatch.setattr(connection, "_require", lambda frame, checks: None)
    products = set()
    for m in manifolds(tmp_path):
        if flip:
            m = dataclasses.replace(
                m, kind=StructureKind(-m.kind.alpha, m.kind.epsilon)
            )
        products.add(m.kind.product)
        points = SMALL.points(m.domain)
        derived, identities = einsum_reference(m, points)
        got = derived_tensors(m, points)
        assert set(got) == set(derived)
        for key, want in derived.items():
            assert_close(got[key], want, (m.name, key))
        tensors = connection._identity_tensors(connection._Frame(m, points))
        assert set(tensors) == set(identities)
        triples = vector_triples(1, 5, m.dim)
        worst = identity_residuals(m, points, triples)
        for key, want in identities.items():
            assert_close(tensors[key], want, (m.name, key))
            assert_close(worst[key], inf_norm(want), (m.name, key))
            on_vectors = inf_norm(einsum_on_vectors(want, triples))
            assert_close(worst[key + "_on_vectors"], on_vectors, (m.name, key))
    assert products == {-1, 1}


def perturbing(helper, target, size):
    """``helper`` with ``size`` added to one entry when its operand is target."""

    def perturbed(j, t):
        out = helper(j, t)
        if t.shape == target.shape and np.array_equal(t, target):
            out = out.copy()
            out[:, 0, 1, 2] += size
        return out

    return perturbed


def test_each_shared_product_leaves_its_cross_check_live(monkeypatch):
    # torsion is checked from gamma0, from (nabla J) J and from J (nabla J),
    # and Nijenhuis from nabla J and from dJ brackets: perturbing one
    # route's product alone fails its check
    m = catalog("s6-nearly-kahler")
    points = SMALL.points(m.domain)
    nj = derived_tensors(m, points)["nabla_j"]
    dj = eval_with_derivatives(m, points)[3]
    # J (nabla J) also feeds the anticommutator check, so the perturbation
    # stays below that tolerance and above the torsion one after alpha / 2
    size = 0.5 * connection.PARALLEL_TOL
    assert size / 2.0 > connection.TORSION_AGREEMENT_TOL
    with monkeypatch.context() as patch:
        patch.setattr(connection, "_j_left", perturbing(connection._j_left, nj, size))
        with pytest.raises(TorsionFormulaMismatch, match="torsion formulas disagree"):
            derived_tensors(m, points)
    with monkeypatch.context() as patch:
        patch.setattr(connection, "_j_first", perturbing(connection._j_first, dj, 1e-3))
        with pytest.raises(NijenhuisFormulaMismatch, match="Nijenhuis routes disagree"):
            derived_tensors(m, points)
    derived_tensors(m, points)


def test_the_library_keeps_no_surface_that_only_tests_call():
    # building a system from row lists, conjugating a fiber and the numeric
    # nullity of a lone system are test fixtures (support.py), and the
    # identity suite always probes
    defined, signatures = set(), []
    for path in sorted(Path(connection.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                if node.name == "identity_residuals":
                    signatures.append(node.args)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert defined.isdisjoint({"from_rows", "conjugated", "numeric_nullity"})
    (args,) = signatures
    positional = [a.arg for a in args.posonlyargs + args.args]
    with_default = positional[len(positional) - len(args.defaults) :]
    assert "triples" in positional and "triples" not in with_default
    with pytest.raises(TypeError):
        identity_residuals(catalog("flat-kahler"), (0.1, 0.1))


def test_require_names_only_the_check_gate():
    # ``connection._require`` raises for the first failing axiom or check;
    # the config-key reader is ``manifold._config_value``
    owners = [
        path.name
        for path in sorted(Path(connection.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_require"
    ]
    assert owners == ["connection.py"]


def test_axiom_and_cross_check_errors_are_raised_only_by_the_check_gate():
    # these errors reach users only as entries of ``_require``'s list, so a
    # new check cannot jump the order: every axiom, then each cross-check
    gated = {
        "InvalidStructure",
        "FormulaMismatch",
        "TorsionFormulaMismatch",
        "NijenhuisFormulaMismatch",
    }
    named = [
        (path.name, node.lineno)
        for path in sorted(Path(connection.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and gated.intersection(
            getattr(part, "id", getattr(part, "attr", None))
            for part in ast.walk(node.exc)
        )
    ]
    assert named == []


def test_no_multi_operand_einsum_in_the_contraction_layer():
    # numpy runs a multi-operand einsum in its unoptimised loop; these
    # modules contract with stacked matrix products
    source = Path(connection.__file__)
    for path in (source, source.with_name("classify.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "einsum" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None),
            ):
                assert len(node.args) <= 2, (path.name, node.lineno)
