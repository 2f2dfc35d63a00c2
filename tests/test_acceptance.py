"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints PASS or FAIL for its criterion straight to the terminal
(bypassing capture) and then asserts, so a full run shows nine lines.
Criteria with a stated time budget measure wall time around the work.
"""

import json
import time

import numpy as np

from aegeom.algebra import (
    ModelFiber,
    SubspaceQuery,
    build_constraints,
    dimension_table,
    standard_fibers,
    subspace_dimension,
)
from aegeom.catalog import catalog, standard_names
from aegeom.classify import VERDICT_TOL, classify, condition_table
from aegeom.cli import EXIT_PASS, run as cli_run
from aegeom.connection import (
    christoffel,
    derived_tensors,
    identity_residuals,
    vector_triples,
)
from aegeom.linalg import exact_nullity, null_space
from aegeom.manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PRODUCT_RIEMANNIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    eval_with_derivatives,
    evaluate_fields,
    validate_structure,
)
from support import fd_christoffel

FULL_PLAN = SamplePlan(seed=0, n_points=50)


def announce(capsys, ok, label):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {label}", flush=True)
    assert ok, label


def test_criterion_1_catalog_validates(capsys):
    start = time.monotonic()
    worst = 0.0
    for name in standard_names():
        report = validate_structure(catalog(name), FULL_PLAN)
        assert report.valid, (name, report.failures)
        worst = max(worst, max(report.residuals.values()))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 5.0
    announce(
        capsys,
        ok,
        f"criterion 1: all 13 entries validate at 50 points "
        f"(worst residual {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_identity_suite(capsys):
    start = time.monotonic()
    worst = 0.0
    for name in standard_names():
        m = catalog(name)
        triples = vector_triples(FULL_PLAN.seed, 20, m.dim)
        for point in FULL_PLAN.points(m.domain):
            res = identity_residuals(m, point, triples)
            worst = max(worst, max(res.values()))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 30.0
    announce(
        capsys,
        ok,
        f"criterion 2: identity suite at 50 points x 20 triples per entry "
        f"(worst residual {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_torsion_routes_and_parallelism(capsys):
    worst_spread = 0.0
    worst_parallel = 0.0
    for name in standard_names():
        m = catalog(name)
        alpha = m.kind.alpha
        points = FULL_PLAN.points(m.domain)
        arrays = derived_tensors(m, points)  # raises if routes disagree
        g, dg, jt, dj = eval_with_derivatives(m, points)
        for index, point in enumerate(points):
            nj = arrays["nabla_j"][index]
            t = arrays["torsion"][index]
            _, j = evaluate_fields(m, point)
            shifted = (-alpha / 2.0) * (
                np.einsum("jia,ak->ijk", nj, j) - np.einsum("kia,aj->ijk", nj, j)
            )
            rotated = (alpha / 2.0) * (
                np.einsum("ia,jak->ijk", j, nj) - np.einsum("ia,kaj->ijk", j, nj)
            )
            spread = max(
                float(np.max(np.abs(t - shifted))),
                float(np.max(np.abs(t - rotated))),
            )
            worst_spread = max(worst_spread, spread)
            gamma0 = arrays["gamma0"][index]
            cov_j = (
                dj[index]
                + np.einsum("ika,aj->kij", gamma0, jt[index])
                - np.einsum("akj,ia->kij", gamma0, jt[index])
            )
            cov_g = (
                dg[index]
                - np.einsum("aki,aj->kij", gamma0, g[index])
                - np.einsum("akj,ia->kij", gamma0, g[index])
            )
            worst_parallel = max(
                worst_parallel,
                float(np.max(np.abs(cov_j))),
                float(np.max(np.abs(cov_g))),
            )
    ok = worst_spread < 1e-9 and worst_parallel < 1e-8
    announce(
        capsys,
        ok,
        f"criterion 3: torsion routes agree (spread {worst_spread:.2e}) and "
        f"the canonical connection is parallel ({worst_parallel:.2e})",
    )


def test_criterion_4_nijenhuis_routes_and_relation(capsys):
    worst = 0.0
    for name in standard_names():
        m = catalog(name)
        alpha = m.kind.alpha
        points = FULL_PLAN.points(m.domain)
        arrays = derived_tensors(m, points)  # raises if the two routes split
        for index, point in enumerate(points):
            t = arrays["torsion"][index]
            n = arrays["nijenhuis"][index]
            _, j = evaluate_fields(m, point)
            relation = (
                np.einsum("aj,bk,iab->ijk", j, j, t) + alpha * t + 0.5 * n
            )
            worst = max(worst, float(np.max(np.abs(relation))))
    ok = worst < 1e-8
    announce(
        capsys,
        ok,
        f"criterion 4: Nijenhuis routes agree and minus half of it matches "
        f"the shifted torsion (residual {worst:.2e})",
    )


def test_criterion_5_subspace_dimensions(capsys):
    start = time.monotonic()
    ok = True
    for kind in KINDS:
        for n in (1, 2, 3):
            fiber = ModelFiber.standard(kind, n)
            for query in SubspaceQuery:
                system = build_constraints(fiber, query)
                numeric, _ = null_space(system)
                exact = exact_nullity(system)
                ok = ok and numeric == exact
                dim = subspace_dimension(fiber, query)
                if query is SubspaceQuery.SYMMETRIC:
                    ok = ok and dim == 0
                if query is SubspaceQuery.ALTERNATING and kind in (
                    NORDEN,
                    PRODUCT_RIEMANNIAN,
                ):
                    ok = ok and dim == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    announce(
        capsys,
        ok,
        f"criterion 5: alternating subspace trivial for matching signs, "
        f"symmetric subspace trivial everywhere, numeric = exact ({elapsed:.2f}s)",
    )


def test_criterion_6_six_sphere_profile(capsys):
    start = time.monotonic()
    m = catalog("s6-nearly-kahler")
    plan = SamplePlan(seed=0, n_points=20)
    triples = vector_triples(0, 20, 6)
    worst_nearly = 0.0
    worst_pairing = 0.0
    min_nabla = np.inf
    min_nij = np.inf
    points = plan.points(m.domain)
    arrays = derived_tensors(m, points)
    for index, point in enumerate(points):
        nj = arrays["nabla_j"][index]
        t = arrays["torsion"][index]
        n = arrays["nijenhuis"][index]
        g, _ = evaluate_fields(m, point)
        worst_nearly = max(
            worst_nearly, float(np.max(np.abs(nj + np.einsum("jik->kij", nj))))
        )
        min_nabla = min(min_nabla, float(np.max(np.abs(nj))))
        min_nij = min(min_nij, float(np.max(np.abs(n))))
        for triple in triples:
            x, y = triple[0], triple[1]
            val = abs(float(np.einsum("ia,ijk,j,k,a->", g, t, x, y, x)))
            worst_pairing = max(worst_pairing, val)
    elapsed = time.monotonic() - start
    ok = (
        worst_nearly < 1e-8
        and min_nabla > 1e-3
        and min_nij > 1e-3
        and worst_pairing < 1e-8
        and elapsed < 10.0
    )
    announce(
        capsys,
        ok,
        f"criterion 6: six-sphere is nearly ({worst_nearly:.2e}) with "
        f"nonparallel structure ({min_nabla:.2e}), nonzero Nijenhuis "
        f"({min_nij:.2e}), skew torsion pairing ({worst_pairing:.2e}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_theorem_suite_and_table(capsys):
    vacuous_seen = False
    for name in standard_names():
        # raises on violation
        checks = classify(catalog(name), FULL_PLAN).theorem_checks
        for check in checks:
            assert check.status in ("passed", "hypothesis not met")
            vacuous_seen = vacuous_seen or check.status == "hypothesis not met"
    dims = dimension_table(standard_fibers())
    table = condition_table(FULL_PLAN, VERDICT_TOL, dims)
    cells = table["cells"]
    pattern_ok = True
    for label in ("hermitian", "para-hermitian"):
        pattern_ok = pattern_ok and cells[label]["plus_sign"]["class"] == (
            "nearly Kahler type"
        )
    for label in ("norden", "product-riemannian"):
        pattern_ok = pattern_ok and cells[label]["plus_sign"]["class"] == (
            "Kahler type"
        )
    for label in cells:
        pattern_ok = pattern_ok and cells[label]["minus_sign"]["class"] == (
            "Kahler type"
        )
    ok = vacuous_seen and pattern_ok
    announce(
        capsys,
        ok,
        "criterion 7: theorem suite clean on every entry, vacuous cases "
        "reported, class table shows the four expected verdicts",
    )


def test_criterion_8_christoffel_against_finite_differences(capsys):
    polar = ChartedManifold(
        name="polar",
        kind=HERMITIAN,
        dim=2,
        domain=Box((1.0, -1.0), (3.0, 1.0)),
        fields=lambda c: (
            [[1.0, 0.0 * c[0]], [0.0 * c[0], c[0] * c[0]]],
            [[0.0, -1.0], [1.0, 0.0]],
        ),
    )
    gamma = christoffel(polar, (2.0, 0.0))[0]
    closed_ok = (
        abs(gamma[0, 1, 1] + 2.0) < 1e-10 and abs(gamma[1, 0, 1] - 0.5) < 1e-10
    )
    worst = 0.0
    plan = SamplePlan(seed=0, n_points=10)
    targets = [polar] + [
        catalog(n)
        for n in (
            "random-hermitian-13",
            "random-product-riemannian-7",
            "random-norden-42",
            "random-para-hermitian-5",
        )
    ]
    for m in targets:
        points = plan.points(m.domain)
        for point, mine in zip(points, christoffel(m, points)):
            oracle = fd_christoffel(m, point)
            scale = max(1.0, float(np.max(np.abs(mine))))
            worst = max(worst, float(np.max(np.abs(mine - oracle))) / scale)
    ok = closed_ok and worst < 1e-5
    announce(
        capsys,
        ok,
        f"criterion 8: Christoffel symbols match the finite-difference "
        f"oracle (closed form exact, relative spread {worst:.2e})",
    )


def test_criterion_9_cli_byte_determinism(tmp_path, capsys):
    commands = [
        ["validate", "--manifold", "s6-nearly-kahler", "--points", "10"],
        ["classify", "--manifold", "random-norden-42", "--points", "10"],
        ["verify", "--manifold", "flat-kahler", "--points", "10"],
        ["identities", "--manifold", "flat-para-kahler", "--points", "5"],
        ["algebra-table", "--points", "5"],
        ["catalog"],
    ]
    identical = True
    for i, argv in enumerate(commands):
        paths = [tmp_path / f"out_{i}_{run_idx}.json" for run_idx in (0, 1)]
        for path in paths:
            code = cli_run(argv + ["--format", "json", "--output", str(path)])
            assert code == EXIT_PASS, argv
        first, second = (p.read_bytes() for p in paths)
        json.loads(first.decode())  # must be well-formed JSON
        identical = identical and first == second
    announce(
        capsys,
        identical,
        "criterion 9: repeated CLI runs produce byte-identical JSON",
    )
