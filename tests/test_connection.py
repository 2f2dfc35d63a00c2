"""Connections, torsion, Nijenhuis, and the pointwise identity suite.

The Christoffel coefficients are checked against an independent oracle that
differentiates the metric by central differences and applies the explicit
inverse-metric formula, sharing no code with the dual-number route.
"""

import numpy as np
import pytest

from aegeom import connection
from aegeom.catalog import catalog, standard_names
from aegeom.classify import sample_residuals
from aegeom.connection import (
    canonical_connection,
    canonical_torsion,
    christoffel,
    codazzi_coupled_residuals,
    derived_tensors,
    identity_residuals,
    nabla_j,
    nijenhuis,
)
from aegeom.errors import FormulaMismatch, InvalidStructure, TorsionFormulaMismatch
from aegeom.manifold import (
    HERMITIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    eval_with_derivatives,
    evaluate_fields,
)

SMALL = SamplePlan(seed=0, n_points=6)


def fd_christoffel(m, point, h=1e-6):
    """Koszul formula with centered finite differences of the metric."""
    d = m.dim
    g, _ = evaluate_fields(m, point)
    dg = np.empty((d, d, d))
    for k in range(d):
        hi = list(point)
        hi[k] += h
        lo = list(point)
        lo[k] -= h
        g_hi, _ = evaluate_fields(m, hi)
        g_lo, _ = evaluate_fields(m, lo)
        dg[k] = (g_hi - g_lo) / (2 * h)
    ginv = np.linalg.inv(g)
    gamma = np.empty((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = 0.0
                for l in range(d):
                    acc += ginv[k, l] * (dg[i, l, j] + dg[j, i, l] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def polar_like():
    return ChartedManifold(
        name="polar",
        kind=HERMITIAN,
        dim=2,
        domain=Box((1.0, -1.0), (3.0, 1.0)),
        metric=lambda c: [[1.0, 0.0 * c[0]], [0.0 * c[0], c[0] * c[0]]],
        structure=lambda c: [[0.0, -1.0], [1.0, 0.0]],
    )


def test_flat_connection_vanishes_exactly():
    for name in ("flat-kahler", "flat-anti-kahler"):
        m = catalog(name)
        coeffs = christoffel(m, (0.3, -0.2))
        assert coeffs.gamma.inf_norm() == 0.0
        assert coeffs.point == (0.3, -0.2)
        assert canonical_connection(m, (0.3, -0.2)).gamma.inf_norm() == 0.0


def test_polar_metric_christoffel_closed_form():
    m = polar_like()
    gamma = christoffel(m, (2.0, 0.0)).gamma.data
    # radial coordinate first: gamma^r_tt = -r, gamma^t_rt = 1/r
    assert gamma[0, 1, 1] == pytest.approx(-2.0, rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.5, rel=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(0.5, rel=1e-12)
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-12)


def test_polar_metric_christoffel_matches_finite_differences():
    m = polar_like()
    for point in ((2.0, 0.0), (1.5, 0.3), (2.8, -0.4)):
        mine = christoffel(m, point).gamma.data
        oracle = fd_christoffel(m, point)
        scale = max(1.0, float(np.max(np.abs(mine))))
        assert np.max(np.abs(mine - oracle)) < 1e-5 * scale


def test_catalog_christoffel_matches_finite_differences():
    for name in ("s6-nearly-kahler", "random-norden-42", "pullback-integrable-norden"):
        m = catalog(name)
        for point in SMALL.points(m.domain)[:3]:
            mine = christoffel(m, point).gamma.data
            oracle = fd_christoffel(m, point)
            scale = max(1.0, float(np.max(np.abs(mine))))
            assert np.max(np.abs(mine - oracle)) < 1e-5 * scale, name


def test_christoffel_is_symmetric_and_metric_compatible():
    for name in ("s6-nearly-kahler", "random-product-riemannian-7"):
        m = catalog(name)
        for point in SMALL.points(m.domain)[:3]:
            g, dg, _, _ = eval_with_derivatives(m, point)
            gamma = christoffel(m, point).gamma.data
            assert np.max(np.abs(gamma - np.einsum("kij->kji", gamma))) < 1e-10
            cov = (
                dg.data
                - np.einsum("aki,aj->kij", gamma, g.data)
                - np.einsum("akj,ia->kij", gamma, g.data)
            )
            assert np.max(np.abs(cov)) < 1e-8, name


def test_structure_derivative_vanishes_on_flat_entries():
    m = catalog("flat-para-kahler")
    assert nabla_j(m, (0.1, 0.8)).inf_norm() == 0.0


def test_structure_derivative_variance_and_magnitude():
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[0]
    nj = nabla_j(m, point)
    assert nj.variance == ("lower", "upper", "lower")
    assert nj.inf_norm() > 1e-3


def test_nearly_property_on_the_six_sphere():
    m = catalog("s6-nearly-kahler")
    vectors = SamplePlan(seed=2, n_vector_triples=20).vector_triples(6)
    for point in SMALL.points(m.domain)[:4]:
        nj = nabla_j(m, point).data
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
        for point in SMALL.points(m.domain)[:3]:
            g, dg, j, dj = eval_with_derivatives(m, point)
            gamma0 = canonical_connection(m, point).gamma.data
            cov_j = (
                dj.data
                + np.einsum("ika,aj->kij", gamma0, j.data)
                - np.einsum("akj,ia->kij", gamma0, j.data)
            )
            cov_g = (
                dg.data
                - np.einsum("aki,aj->kij", gamma0, g.data)
                - np.einsum("akj,ia->kij", gamma0, g.data)
            )
            assert np.max(np.abs(cov_j)) < 1e-8, name
            assert np.max(np.abs(cov_g)) < 1e-8, name


def test_canonical_connection_differs_from_metric_one_when_j_varies():
    m = catalog("random-product-riemannian-7")
    point = SMALL.points(m.domain)[0]
    plain = christoffel(m, point).gamma.data
    adapted = canonical_connection(m, point).gamma.data
    assert np.max(np.abs(plain - adapted)) > 1e-3


def test_canonical_torsion_antisymmetry_and_flat_vanishing():
    m = catalog("flat-product-riemannian")
    assert canonical_torsion(m, (0.4, 0.4)).inf_norm() == 0.0
    m2 = catalog("s6-nearly-kahler")
    point = SMALL.points(m2.domain)[1]
    t = canonical_torsion(m2, point)
    assert t.variance == ("upper", "lower", "lower")
    swap = t.data + np.einsum("ijk->ikj", t.data)
    assert np.max(np.abs(swap)) < 1e-12
    assert t.inf_norm() > 1e-3


def test_canonical_torsion_matches_structure_rotation_routes():
    # rebuild both closed forms from the public structure derivative
    for name in ("s6-nearly-kahler", "random-hermitian-13", "random-norden-42"):
        m = catalog(name)
        alpha = m.kind.alpha
        for point in SMALL.points(m.domain)[:3]:
            t = canonical_torsion(m, point).data
            nj = nabla_j(m, point).data
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
    vectors = SamplePlan(seed=4, n_vector_triples=20).vector_triples(6)
    for point in SMALL.points(m.domain)[:4]:
        g, _ = evaluate_fields(m, point)
        t = canonical_torsion(m, point).data
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
        for point in SMALL.points(m.domain)[:3]:
            n = nijenhuis(m, point)
            assert n.inf_norm() < 1e-8, name


def test_pullback_entries_are_curved_but_integrable():
    for label in ("hermitian", "norden"):
        m = catalog(f"pullback-integrable-{label}")
        point = SMALL.points(m.domain)[0]
        assert nabla_j(m, point).inf_norm() > 1e-3
        assert nijenhuis(m, point).inf_norm() < 1e-8


def test_nijenhuis_does_not_vanish_on_the_six_sphere():
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[0]
    n = nijenhuis(m, point)
    assert n.inf_norm() > 0.1
    swap = n.data + np.einsum("ijk->ikj", n.data)
    assert np.max(np.abs(swap)) < 1e-12


def test_torsion_carries_the_nijenhuis_relation():
    # J-shifted torsion plus alpha times torsion equals minus half Nijenhuis
    for name in ("s6-nearly-kahler", "random-para-hermitian-5"):
        m = catalog(name)
        alpha = m.kind.alpha
        for point in SMALL.points(m.domain)[:3]:
            t = canonical_torsion(m, point).data
            n = nijenhuis(m, point).data
            _, j = evaluate_fields(m, point)
            shift = np.einsum("aj,bk,iab->ijk", j, j, t) + alpha * t
            assert np.max(np.abs(shift + 0.5 * n)) < 1e-8, name


def test_rotated_codazzi_defect_reproduces_torsion():
    for name in ("s6-nearly-kahler", "random-norden-42", "random-hermitian-13"):
        m = catalog(name)
        alpha = m.kind.alpha
        for point in SMALL.points(m.domain)[:3]:
            nj = nabla_j(m, point).data
            _, j = evaluate_fields(m, point)
            t = canonical_torsion(m, point).data
            defect = nj - np.einsum("jik->kij", nj)
            rebuilt = (alpha / 2.0) * np.einsum("ia,jak->ijk", j, defect)
            assert np.max(np.abs(rebuilt - t)) < 1e-9, name


def test_derived_tensors_bundle_is_consistent():
    # every checked single-point function is the N=1 slice of the checked pass
    for name in standard_names():
        m = catalog(name)
        point = SMALL.points(m.domain)[0]
        arrays = connection._derived_arrays(connection._Frame(m, [point]))
        bundle = derived_tensors(m, point)
        assert bundle.nabla_j == nabla_j(m, point)
        assert bundle.torsion == canonical_torsion(m, point)
        assert bundle.nijenhuis == nijenhuis(m, point)
        adapted = canonical_connection(m, point)
        assert bundle.point == adapted.point == tuple(float(x) for x in point)
        for key, value in (
            ("nabla_j", bundle.nabla_j),
            ("torsion", bundle.torsion),
            ("nijenhuis", bundle.nijenhuis),
            ("gamma0", adapted.gamma),
        ):
            assert np.array_equal(value.data, arrays[key][0]), (name, key)


def test_every_checked_point_function_runs_every_cross_check(monkeypatch):
    # a zero tolerance fails the torsion check (the second cross-check) at
    # every point, even for a residual of exactly zero
    monkeypatch.setattr(connection, "TORSION_AGREEMENT_TOL", 0.0)
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[0]
    for checked in (
        nabla_j,
        canonical_connection,
        canonical_torsion,
        nijenhuis,
        derived_tensors,
    ):
        with pytest.raises(TorsionFormulaMismatch, match="^s6-nearly-kahler: "):
            checked(m, point)


def test_codazzi_coupled_residuals_split():
    m_flat = catalog("flat-product-riemannian")
    r_j, r_g = codazzi_coupled_residuals(m_flat, (0.2, -0.2))
    assert r_j == 0.0 and r_g == 0.0
    m = catalog("random-norden-42")
    point = SMALL.points(m.domain)[0]
    r_j, r_g = codazzi_coupled_residuals(m, point)
    assert r_g < 1e-10  # metric part is an identity for the metric connection
    assert r_j > 1e-3


def test_codazzi_defect_doubles_on_nearly_structures():
    m = catalog("s6-nearly-kahler")
    point = SMALL.points(m.domain)[2]
    r_j, _ = codazzi_coupled_residuals(m, point)
    nj = nabla_j(m, point).data
    defect = nj - np.einsum("jik->kij", nj)
    assert r_j == pytest.approx(float(np.max(np.abs(2.0 * nj))), abs=1e-8)
    assert np.max(np.abs(defect - 2.0 * nj)) < 1e-8


def test_identity_suite_on_every_catalog_entry():
    triples = SamplePlan(seed=1, n_vector_triples=5)
    for name in standard_names():
        m = catalog(name)
        vectors = triples.vector_triples(m.dim)
        for point in SMALL.points(m.domain)[:2]:
            res = identity_residuals(m, point, vectors)
            for key, val in res.items():
                assert val < 1e-8, (name, key, val)
            assert "pairing_swap" in res
            assert "pairing_swap_on_vectors" in res
            assert "twin_codazzi_match" in res
            has_form = "fundamental_form_antisymmetry" in res
            assert has_form == (m.kind.product == -1), name


def test_identity_suite_without_vectors_has_no_vector_keys():
    m = catalog("flat-kahler")
    res = identity_residuals(m, (0.1, 0.1))
    assert all(not k.endswith("_on_vectors") for k in res)


def crooked():
    # declared structure squares to diag(1, 4), not -Id, at every point
    return ChartedManifold(
        name="crooked",
        kind=HERMITIAN,
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        metric=lambda c: [[1.0 + c[1] * c[1], 0.0], [0.0, 1.0]],
        structure=lambda c: [[1.0, 0.0], [0.0, 2.0]],
    )


def test_structure_that_fails_its_own_square_is_rejected():
    with pytest.raises(InvalidStructure, match="structure_squared axiom"):
        nabla_j(crooked(), (0.3, 0.4))


def test_crooked_sweep_names_the_first_sampled_point():
    m = crooked()
    plan = SamplePlan(n_points=5)
    first = tuple(float(x) for x in plan.points(m.domain)[0])
    with pytest.raises(InvalidStructure) as caught:
        sample_residuals(m, plan)
    assert str(caught.value).startswith("crooked: structure_squared axiom")
    assert str(first) in str(caught.value)


def test_unchecked_passes_accept_a_structure_that_fails_its_axioms():
    m = crooked()
    assert christoffel(m, (0.3, 0.4)).gamma.inf_norm() > 0.0
    assert codazzi_coupled_residuals(m, (0.3, 0.4))[1] < 1e-12
    assert "anticommute" in identity_residuals(m, (0.3, 0.4))


def test_cross_check_failures_name_the_manifold(monkeypatch):
    monkeypatch.setattr(connection, "PARALLEL_TOL", 0.0)
    with pytest.raises(FormulaMismatch, match=r"^s6-nearly-kahler: \(nabla J\)"):
        nabla_j(catalog("s6-nearly-kahler"), (0.1, 0.2, 0.3, 0.1, 0.2, 0.3))
