"""Catalog entries: constructions, validation, and ambient cross-checks."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from aegeom import cli
from aegeom.catalog import catalog, standard_names

# the package re-exports the catalog() function under the submodule's name,
# so reach the module itself through the import system
catalog_mod = importlib.import_module("aegeom.catalog")
from aegeom.errors import DegenerateConstruction, UnknownCatalogName
from aegeom.manifold import (
    HERMITIAN,
    NORDEN,
    SamplePlan,
    evaluate_fields,
    eval_with_derivatives,
    inf_norm,
    validate_structure,
)
from aegeom.octonion import cross_matrix

PLAN = SamplePlan(seed=0, n_points=20)


def test_catalog_imports_nothing_from_algebra():
    source = Path(catalog_mod.__file__).read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported and not [m for m in imported if m and "algebra" in m]


def test_standard_names_are_thirteen_and_resolvable():
    names = standard_names()
    assert len(names) == 13
    assert len(set(names)) == 13
    for name in names:
        m = catalog(name)
        assert m.name == name


def test_every_standard_entry_validates():
    for name in standard_names():
        m = catalog(name)
        report = validate_structure(m, PLAN)
        assert report.valid, (name, report.residuals)
        assert max(report.residuals.values()) < 1e-8


def test_flat_entries_have_exactly_zero_residuals():
    for name in (
        "flat-kahler",
        "flat-product-riemannian",
        "flat-anti-kahler",
        "flat-para-kahler",
    ):
        report = validate_structure(catalog(name), SamplePlan(n_points=5))
        assert all(v == 0.0 for v in report.residuals.values()), name


# (metric, structure) of the constant pairs, written out so that a change to
# ModelFiber.standard, which the catalog takes them from, shows here
CONSTANT_PAIRS = {
    "flat-kahler": ([[1, 0], [0, 1]], [[0, -1], [1, 0]]),
    "flat-product-riemannian": ([[1, 0], [0, 1]], [[1, 0], [0, -1]]),
    "flat-anti-kahler": ([[1, 0], [0, -1]], [[0, -1], [1, 0]]),
    "flat-para-kahler": ([[0, 1], [1, 0]], [[1, 0], [0, -1]]),
    "pullback-integrable-hermitian": (
        np.eye(4),
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    ),
    "pullback-integrable-para-hermitian": (
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
        np.diag([1, 1, -1, -1]),
    ),
}


def test_constant_pairs_are_pinned():
    # a pullback entry is its constant pair at the origin, where the
    # diffeomorphism's Jacobian is the identity
    pins = dict(CONSTANT_PAIRS)
    pins["pullback-integrable-product-riemannian"] = pins["flat-product-riemannian"]
    pins["pullback-integrable-norden"] = pins["flat-anti-kahler"]
    for name, expected in pins.items():
        m = catalog(name)
        for got, want in zip(evaluate_fields(m, np.zeros(m.dim)), expected):
            assert np.array_equal(got, np.array(want, dtype=float)), name


def test_entry_kinds_and_dimensions():
    expected = {
        "flat-kahler": ("hermitian", 2),
        "flat-product-riemannian": ("product-riemannian", 2),
        "flat-anti-kahler": ("norden", 2),
        "flat-para-kahler": ("para-hermitian", 2),
        "s6-nearly-kahler": ("hermitian", 6),
        "pullback-integrable-hermitian": ("hermitian", 4),
        "pullback-integrable-product-riemannian": ("product-riemannian", 2),
        "pullback-integrable-norden": ("norden", 2),
        "pullback-integrable-para-hermitian": ("para-hermitian", 4),
        "random-hermitian-13": ("hermitian", 2),
        "random-product-riemannian-7": ("product-riemannian", 2),
        "random-norden-42": ("norden", 2),
        "random-para-hermitian-5": ("para-hermitian", 2),
    }
    for name, (label, dim) in expected.items():
        m = catalog(name)
        assert m.kind.label == label, name
        assert m.dim == dim, name


def test_six_sphere_at_chart_origin():
    m = catalog("s6-nearly-kahler")
    g, j = evaluate_fields(m, (0.0,) * 6)
    assert np.allclose(g, np.eye(6), atol=1e-14)
    assert np.allclose(j @ j, -np.eye(6), atol=1e-12)
    assert np.allclose(j.T @ g @ j, g, atol=1e-12)


def test_six_sphere_chart_lands_on_unit_sphere():
    for u in PLAN.points(catalog("s6-nearly-kahler").domain)[:8]:
        p, d, den = catalog_mod._s6_chart([float(x) for x in u])
        p = np.array(p)
        d = np.array(d)
        assert abs(np.dot(p, p) - 1.0) < 1e-12
        # chart Jacobian columns are tangent to the sphere
        assert np.max(np.abs(d.T @ p)) < 1e-12
        # conformal factor: D^T D = Id / den^2
        assert np.allclose(d.T @ d, np.eye(6) / (den * den), atol=1e-12)


def test_six_sphere_structure_matches_ambient_rotation():
    # push a chart vector to the ambient space, rotate it with the cross
    # product against the base point, and compare with the chart-level J
    m = catalog("s6-nearly-kahler")
    rng = np.random.default_rng(1)
    for u in PLAN.points(m.domain)[:8]:
        coords = [float(x) for x in u]
        p, d, _ = catalog_mod._s6_chart(coords)
        d = np.array(d)
        _, j = evaluate_fields(m, coords)
        for _ in range(3):
            w = rng.standard_normal(6)
            ambient = d @ (j @ w)
            rotated = np.array(cross_matrix(p) @ (d @ w))
            assert np.max(np.abs(ambient - rotated)) < 1e-10


def test_six_sphere_structure_actually_varies():
    m = catalog("s6-nearly-kahler")
    _, _, _, dj = eval_with_derivatives(m, (0.1, -0.2, 0.3, 0.05, -0.1, 0.2))
    assert inf_norm(dj) > 0.1


def test_pullback_entries_are_curved():
    for label in ("hermitian", "product-riemannian", "norden", "para-hermitian"):
        m = catalog(f"pullback-integrable-{label}")
        point = (0.2,) * m.dim
        _, dg, _, dj = eval_with_derivatives(m, point)
        assert inf_norm(dj) > 1e-3, label
        assert inf_norm(dg) > 1e-3, label


def test_random_norden_metric_has_split_signature():
    m = catalog("random-norden-42")
    for point in PLAN.points(m.domain):
        g, _ = evaluate_fields(m, point)
        eigs = np.linalg.eigvalsh(g)
        assert eigs[0] < 0.0 < eigs[1]


def test_random_entries_are_reproducible():
    a = catalog("random-norden-42")
    b = catalog("random-norden-42")
    point = (0.1, -0.2)
    ga, ja = evaluate_fields(a, point)
    gb, jb = evaluate_fields(b, point)
    assert np.array_equal(ga, gb)
    assert np.array_equal(ja, jb)


def test_random_entries_differ_across_seeds():
    point = (0.1, -0.2)
    _, j42 = evaluate_fields(catalog("random-norden-42"), point)
    _, j7 = evaluate_fields(catalog("random-norden-7"), point)
    assert np.max(np.abs(j42 - j7)) > 1e-4


# a seed past int()'s default limit of 4300 digits
LONG_SEED = "random-hermitian-" + "9" * 4400


def test_arbitrary_random_seeds_still_validate():
    for name in ("random-hermitian-3", "random-para-hermitian-99"):
        report = validate_structure(catalog(name), SamplePlan(n_points=10))
        assert report.valid, (name, report.residuals)


def test_canonical_seed_spellings_resolve_under_their_own_name():
    for name in ("random-hermitian-0", "random-hermitian-" + "7" * 4000):
        assert catalog(name).name == name


def test_unknown_names_are_rejected_with_catalog_listing():
    # str.isdigit accepts "²" and "١٢"; int() rejects "²", reads "١٢" as 12
    # and "013" as 13, and rejects LONG_SEED's digits
    for bad in (
        "flat-hermitian",
        "random-norden-x",
        "random-norden--3",
        "sphere",
        "random-hermitian-²",
        "random-hermitian-١٢",
        "random-hermitian-013",
        LONG_SEED,
    ):
        with pytest.raises(UnknownCatalogName) as exc:
            catalog(bad)
        assert "s6-nearly-kahler" in str(exc.value)
        assert "random-<kind>-<seed>" in str(exc.value)


@pytest.mark.parametrize(
    "bad",
    [
        "random-hermitian-²",
        "random-hermitian-١٢",
        "random-hermitian-013",
        pytest.param(LONG_SEED, id="random-hermitian-4400-digits"),
    ],
)
def test_non_ascii_seed_digits_exit_one_from_every_verb(capsys, bad):
    for verb in ("validate", "classify", "verify", "identities"):
        assert cli.run([verb, "--manifold", bad, "--points", "2"]) == cli.EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no catalog entry named")
        assert captured.err.count("\n") == 1


class Draws:
    """Stands in for the random entries' generator: hands out fixed draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw


# a constant candidate with entry [0][0] = -10 makes the conjugating matrix
# A = Id + 0.1 * P singular at every point
SINGULAR = np.zeros((2, 2, 6))
SINGULAR[0][0][0] = -10.0


def test_degenerate_candidate_is_screened_out(monkeypatch):
    # the seed metric h = b^T b + Id is generic enough that the untilted
    # candidate, A = Id, survives the difference polarization
    b = np.array([[1.0, 0.5], [0.0, 0.0]])
    draws = Draws([b, SINGULAR, np.zeros((2, 2, 6))])
    monkeypatch.setattr(catalog_mod.np.random, "default_rng", lambda seed: draws)
    m = catalog("random-norden-1")
    assert draws.draws == []
    g, j = evaluate_fields(m, (0.3, -0.2))
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    h = b.T @ b + np.eye(2)
    assert np.array_equal(j, j0)
    assert np.array_equal(g, h - j0.T @ h @ j0)


def test_retry_exhaustion_raises_degenerate_construction(monkeypatch):
    draws = Draws([np.zeros((2, 2))] + [SINGULAR] * catalog_mod.RANDOM_RETRIES)
    monkeypatch.setattr(catalog_mod.np.random, "default_rng", lambda seed: draws)
    with pytest.raises(DegenerateConstruction) as exc:
        catalog("random-norden-1")
    assert "no non-degenerate draw" in str(exc.value)
    assert draws.draws == []


@pytest.mark.parametrize("name", standard_names())
def test_fields_take_plain_stacks_of_any_length(name):
    # the float reference, one point at a time, is what a plain stack of
    # N points must give at each of them, bit for bit
    m = catalog(name)
    points = SamplePlan(seed=5, n_points=3).points(m.domain)
    for count in (1, 2, 3):
        stack = points[:count]
        pair = m.fields(list(stack.T))
        for field, values in enumerate(pair):
            values = np.broadcast_to(values, (count, m.dim, m.dim))
            for point, value in zip(stack, values):
                assert np.array_equal(value, evaluate_fields(m, point)[field])


def test_catalog_entry_kind_objects_are_the_module_constants():
    assert catalog("flat-kahler").kind == HERMITIAN
    assert catalog("random-norden-42").kind == NORDEN
