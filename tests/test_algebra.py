"""Pointwise constraint subspaces: dimensions, invariance, and basis checks."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from aegeom.algebra import (
    MAX_HALF_DIM,
    ModelFiber,
    SubspaceQuery,
    alternating_definitions_coincide,
    build_constraints,
    closed_form_dimension,
    dimension_table,
    standard_fibers,
    subspace_dimension,
)
from aegeom import algebra, cli, linalg
from aegeom.catalog import catalog, standard_names
from aegeom.classify import THEOREMS, sample_residuals
from aegeom.errors import (
    DimensionOracleMismatch,
    TheoremViolation,
    UnsupportedDimension,
)
from aegeom.linalg import LinearConstraintSystem, exact_nullity, null_space
from aegeom.manifold import (
    HERMITIAN,
    KINDS,
    NORDEN,
    PARA_HERMITIAN,
    PRODUCT_RIEMANNIAN,
    SamplePlan,
    axiom_residuals,
    standard_pair,
)


def test_standard_fibers_exist_for_all_kinds_and_sizes():
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            fiber = ModelFiber.standard(kind, n)
            assert fiber.dim == 2 * n
            d = fiber.dim
            assert np.array_equal(
                fiber.j0 @ fiber.j0, kind.alpha * np.eye(d, dtype=int)
            )
            assert np.array_equal(
                fiber.j0.T @ fiber.inner @ fiber.j0, kind.epsilon * fiber.inner
            )


def test_fiber_rejects_out_of_range_sizes():
    with pytest.raises(UnsupportedDimension):
        ModelFiber.standard(HERMITIAN, 0)
    with pytest.raises(UnsupportedDimension):
        ModelFiber.standard(HERMITIAN, MAX_HALF_DIM + 1)


def test_fiber_validates_its_matrices():
    j0 = np.array([[0, -1], [1, 0]])
    eye = np.eye(2, dtype=int)
    squared = "^hermitian fiber pair fails structure_squared$"
    with pytest.raises(ValueError, match=squared):
        ModelFiber(n=1, kind=HERMITIAN, j0=eye, inner=eye)  # squares to +Id
    with pytest.raises(ValueError, match="fails metric_symmetry"):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="fails metric_isometry"):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=np.diag([1, -1]))
    with pytest.raises(ValueError, match="inner form is degenerate"):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=np.zeros((2, 2), dtype=int))
    trace = "^product-riemannian fiber pair fails structure_trace$"
    with pytest.raises(ValueError, match=trace):
        ModelFiber(
            n=1,
            kind=PRODUCT_RIEMANNIAN,
            j0=np.eye(2, dtype=int),
            inner=np.eye(2, dtype=int),
        )  # nonzero trace


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.label)
def test_standard_pair_is_the_standard_fiber_and_meets_the_axioms_exactly(kind):
    for n in range(1, MAX_HALF_DIM + 1):
        inner, j0 = standard_pair(kind, n)
        fiber = ModelFiber.standard(kind, n)
        assert np.array_equal(inner, fiber.inner) and np.array_equal(j0, fiber.j0)
        assert inner.dtype.kind == j0.dtype.kind == "i"
        for key, residual in axiom_residuals(kind, inner[None], j0[None]).items():
            assert not residual.any(), (n, key)


def test_fiber_rejects_non_integer_matrices():
    # a cast to int would truncate this j0 to the standard rotation
    with pytest.raises(ValueError, match="j0 has an entry that is not an integer"):
        ModelFiber(
            n=1, kind=HERMITIAN, j0=[[0, -1.9], [1.2, 0]], inner=np.eye(2, dtype=int)
        )
    with pytest.raises(ValueError, match="inner form has an entry"):
        ModelFiber(n=1, kind=HERMITIAN, j0=[[0, -1], [1, 0]], inner=np.eye(2) * 1.5)
    # integer values stored as floats are integers
    fiber = ModelFiber(
        n=1, kind=HERMITIAN, j0=[[0.0, -1.0], [1.0, 0.0]], inner=np.eye(2)
    )
    assert fiber.j0.dtype.kind == "i"
    assert np.array_equal(fiber.j0, ModelFiber.standard(HERMITIAN, 1).j0)


def test_conjugation_rejects_a_non_integer_basis_change():
    # a cast to int would truncate this shear to the identity
    fiber = ModelFiber.standard(HERMITIAN, 1)
    with pytest.raises(ValueError, match="basis change has an entry"):
        fiber.conjugated([[1, 0.5], [0, 1]])
    with pytest.raises(ValueError, match="basis change has an entry"):
        fiber.conjugated([[1, np.nan], [0, 1]])


def test_smallest_full_system_shape():
    fiber = ModelFiber.standard(HERMITIAN, 1)
    system = build_constraints(fiber, SubspaceQuery.FULL)
    assert system.n_unknowns == 8
    assert system.n_rows == 16


def test_constraint_counts_scale_with_dimension():
    fiber = ModelFiber.standard(NORDEN, 2)
    d = fiber.dim
    full = build_constraints(fiber, SubspaceQuery.FULL)
    alt = build_constraints(fiber, SubspaceQuery.ALTERNATING)
    assert full.n_unknowns == d**3
    assert alt.n_rows == full.n_rows + d**3


FULL_DIMS = {
    "hermitian": {1: 0, 2: 8, 3: 36},
    "para-hermitian": {1: 0, 2: 8, 3: 36},
    "norden": {1: 2, 2: 16, 3: 54},
    "product-riemannian": {1: 2, 2: 16, 3: 54},
}

ALT_DIMS = {
    "hermitian": {1: 0, 2: 0, 3: 2},
    "para-hermitian": {1: 0, 2: 0, 3: 2},
    "norden": {1: 0, 2: 0, 3: 0},
    "product-riemannian": {1: 0, 2: 0, 3: 0},
}


def test_full_subspace_dimensions_follow_the_closed_forms():
    for kind in KINDS:
        for n in range(1, 4):
            fiber = ModelFiber.standard(kind, n)
            dim = subspace_dimension(fiber, SubspaceQuery.FULL)
            assert dim == FULL_DIMS[kind.label][n], (kind.label, n)
            if kind.product == -1:
                assert dim == 2 * n * n * (n - 1)
            else:
                assert dim == 2 * n**3


def test_alternating_dimensions():
    for kind in KINDS:
        for n in range(1, 4):
            fiber = ModelFiber.standard(kind, n)
            dim = subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
            assert dim == ALT_DIMS[kind.label][n], (kind.label, n)


def test_symmetric_subspace_is_always_zero():
    for kind in KINDS:
        for n in range(1, 4):
            fiber = ModelFiber.standard(kind, n)
            assert subspace_dimension(fiber, SubspaceQuery.SYMMETRIC) == 0


def test_dimension_table_layout_matches_individual_queries():
    table = dimension_table(standard_fibers())
    assert set(table) == {k.label for k in KINDS}
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            cell = table[kind.label][n]
            assert cell["full"] == FULL_DIMS[kind.label][n]
            assert cell["alternating_first_two"] == ALT_DIMS[kind.label][n]
            assert cell["symmetric_first_two"] == 0


def test_dimensions_are_basis_independent():
    shear = np.array([[1, 1], [0, 1]])
    flip = np.array([[0, 1], [1, 0]])
    for kind in KINDS:
        fiber = ModelFiber.standard(kind, 1)
        for s in (shear, flip, shear @ flip):
            moved = fiber.conjugated(s)
            for query in SubspaceQuery:
                assert subspace_dimension(moved, query) == subspace_dimension(
                    fiber, query
                ), (kind.label, query)


def test_dimensions_are_basis_independent_in_dimension_four():
    rng = np.random.default_rng(6)
    fiber = ModelFiber.standard(NORDEN, 2)
    # random integer unimodular matrix from elementary shears
    s = np.eye(4, dtype=int)
    for _ in range(6):
        i, j = rng.integers(0, 4, 2)
        if i == j:
            continue
        e = np.eye(4, dtype=int)
        e[i, j] = int(rng.integers(-2, 3))
        s = s @ e
    moved = fiber.conjugated(s)
    for query in SubspaceQuery:
        assert subspace_dimension(moved, query) == subspace_dimension(fiber, query)


def test_conjugation_rejects_non_unimodular_matrices():
    fiber = ModelFiber.standard(HERMITIAN, 1)
    with pytest.raises(ValueError):
        fiber.conjugated(np.diag([2, 1]))
    with pytest.raises(ValueError):
        fiber.conjugated(np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        fiber.conjugated(np.eye(4, dtype=int))


def satisfies_defining_identities(fiber, phi, rng, n_triples=20, tol=1e-9):
    d = fiber.dim
    ae = fiber.kind.product
    j0 = fiber.j0.astype(float)
    for _ in range(n_triples):
        x, y, z = rng.uniform(-1.0, 1.0, (3, d))
        base = float(np.einsum("ijk,i,j,k->", phi, x, y, z))
        swapped = float(np.einsum("ijk,i,j,k->", phi, x, z, y))
        if abs(base - ae * swapped) >= tol:
            return False
        left = float(np.einsum("ijk,i,j,k->", phi, x, j0 @ y, z))
        right = float(np.einsum("ijk,i,j,k->", phi, x, y, j0 @ z))
        if abs(left + ae * right) >= tol:
            return False
    return True


def test_null_space_bases_satisfy_the_defining_identities():
    rng = np.random.default_rng(8)
    for kind in (NORDEN, PRODUCT_RIEMANNIAN):
        fiber = ModelFiber.standard(kind, 2)
        system = build_constraints(fiber, SubspaceQuery.FULL)
        dim, basis = null_space(system)
        assert dim == 16
        for vec in basis:
            phi = vec.reshape(4, 4, 4)
            assert satisfies_defining_identities(fiber, phi, rng)


def test_alternating_basis_is_antisymmetric_in_first_two_slots():
    fiber = ModelFiber.standard(PARA_HERMITIAN, 3)
    system = build_constraints(fiber, SubspaceQuery.ALTERNATING)
    dim, basis = null_space(system)
    assert dim == 2
    rng = np.random.default_rng(12)
    for vec in basis:
        phi = vec.reshape(6, 6, 6)
        assert satisfies_defining_identities(fiber, phi, rng)
        assert np.max(np.abs(phi + np.einsum("ijk->jik", phi))) < 1e-9


def test_both_renderings_of_the_alternating_condition_agree():
    for kind in KINDS:
        for n in range(1, MAX_HALF_DIM + 1):
            fiber = ModelFiber.standard(kind, n)
            dim = subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
            assert alternating_definitions_coincide(fiber, dim), (kind.label, n)


def test_the_coincide_check_reads_the_basis_and_the_dimension(monkeypatch):
    # the alternating subspace of this fiber has dimension 2, so a wrong
    # basis of the right size and a wrong count can each be told apart
    fiber = ModelFiber.standard(HERMITIAN, 3)
    dim = subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    assert dim == 2
    assert alternating_definitions_coincide(fiber, dim)
    for wrong in (dim - 1, dim + 1):
        assert not alternating_definitions_coincide(fiber, wrong), wrong
    true_null_space = algebra.null_space

    def unit_vectors(system):
        # phi(e_0, e_0, e_0) and phi(e_0, e_0, e_1): not antisymmetric
        dim, _ = true_null_space(system)
        return dim, list(np.eye(system.n_unknowns)[:dim])

    monkeypatch.setattr(algebra, "null_space", unit_vectors)
    assert not alternating_definitions_coincide(fiber, dim)


def test_the_coincide_product_reads_the_antisymmetry_rows(monkeypatch):
    # vectors of the full subspace satisfy the base rows, so only the rows
    # of antisymmetry in the first two slots can reject them
    fiber = ModelFiber.standard(HERMITIAN, 3)
    dim = subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    _, full = null_space(build_constraints(fiber, SubspaceQuery.FULL))
    wrong = full[:dim]
    antisymmetric = build_constraints(fiber, SubspaceQuery.ALTERNATING)
    assert np.abs(antisymmetric.to_dense() @ np.array(wrong).T).max() > 1e-3
    monkeypatch.setattr(algebra, "null_space", lambda system: (dim, wrong))
    assert not alternating_definitions_coincide(fiber, dim)


def test_a_fiber_builds_its_base_rows_once(monkeypatch):
    builds = []
    true_rows = algebra.condition_rows

    def counted(fiber, name):
        builds.append((fiber.kind.label, fiber.n, name))
        return true_rows(fiber, name)

    monkeypatch.setattr(algebra, "condition_rows", counted)
    fiber = ModelFiber.standard(PARA_HERMITIAN, 2)
    for query in SubspaceQuery:
        subspace_dimension(fiber, query)
    alternating_definitions_coincide(
        fiber, subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    )
    base = [b for b in builds if b[2] in algebra.BASE]
    assert base == [("para-hermitian", 2, name) for name in algebra.BASE]
    # each query's own condition is built for its system, once per system
    assert [b[2] for b in builds if b not in base] == [
        "nearly",
        "codazzi",
        "nearly",
        "nearly",
    ]
    # the shared arrays are read-only, so no system can change another's rows
    assert not any(a.flags.writeable for a in fiber.base_rows)
    # a fiber made anew, as in the next job, builds its own
    ModelFiber.standard(PARA_HERMITIAN, 2).base_rows
    assert len([b for b in builds if b[2] in algebra.BASE]) == 2 * len(algebra.BASE)


def test_wrong_numeric_rank_trips_the_dimension_oracle(monkeypatch):
    fiber = ModelFiber.standard(PARA_HERMITIAN, 2)
    subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    true_cutoff = linalg._cutoff
    # the largest singular values no longer count toward the rank
    monkeypatch.setattr(
        linalg, "_cutoff", lambda spectra: true_cutoff(spectra) / linalg.NULL_SPACE_TOL
    )
    with pytest.raises(DimensionOracleMismatch):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_wrong_exact_rank_trips_the_dimension_oracle(monkeypatch):
    fiber = ModelFiber.standard(HERMITIAN, 3)
    subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    true_nullity = algebra.exact_nullity
    monkeypatch.setattr(
        algebra, "exact_nullity", lambda system: true_nullity(system) + 1
    )
    with pytest.raises(DimensionOracleMismatch, match="exact dimension 3"):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_a_split_that_drops_a_row_trips_the_dimension_oracle(monkeypatch):
    # the first block of the product-Riemannian n=3 full system is the
    # unknown phi_000 alone: its swap row cancels, and the structure row
    # 2 phi_000 = 0 is the only one that pins it, so without that row the
    # numeric route finds one null vector too many
    fiber = ModelFiber.standard(PRODUCT_RIEMANNIAN, 3)
    true_blocks = linalg._blocks

    def dropping(system):
        blocks = true_blocks(system)
        rows, cols = blocks[0]
        blocks[0] = (rows[:-1], cols)
        return blocks

    monkeypatch.setattr(linalg, "_blocks", dropping)
    with pytest.raises(DimensionOracleMismatch, match="numeric dimension 55"):
        subspace_dimension(fiber, SubspaceQuery.FULL)


def test_a_split_that_cuts_a_block_in_two_trips_the_dimension_oracle(monkeypatch):
    # halving the largest block's unknowns turns every row that crosses the
    # cut into a one-term row on each side, which kills a null vector
    fiber = ModelFiber.standard(HERMITIAN, 3)
    true_blocks = linalg._blocks

    def cutting(system):
        blocks = true_blocks(system)
        big = max(range(len(blocks)), key=lambda b: blocks[b][1].size)
        rows, cols = blocks[big]
        half = cols.size // 2
        blocks[big : big + 1] = [(rows, cols[:half]), (rows, cols[half:])]
        return blocks

    monkeypatch.setattr(linalg, "_blocks", cutting)
    with pytest.raises(DimensionOracleMismatch, match="numeric dimension 1 "):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_routes_that_agree_off_the_closed_form_are_a_theorem_violation(
    monkeypatch, capsys
):
    # both rank routes find one dimension too many, so they agree and only
    # the closed form catches the value
    for route in ("numeric_nullity", "exact_nullity"):
        true_route = getattr(algebra, route)
        monkeypatch.setattr(algebra, route, lambda system, f=true_route: f(system) + 1)
    with pytest.raises(
        TheoremViolation,
        match="^symmetric_first_two subspace has dimension 1 for norden, n=2; "
        "the closed form gives 0$",
    ):
        subspace_dimension(ModelFiber.standard(NORDEN, 2), SubspaceQuery.SYMMETRIC)
    assert cli.run(["algebra-table", "--points", "2"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal consistency failure: full subspace has dimension 1 for "
        "hermitian, n=1; the closed form gives 0\n"
    )


def test_a_route_split_is_reported_before_the_closed_form(monkeypatch):
    fiber = ModelFiber.standard(HERMITIAN, 3)
    monkeypatch.setattr(algebra, "closed_form_dimension", lambda kind, n, q: 99)
    with pytest.raises(TheoremViolation, match="the closed form gives 99"):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    true_nullity = algebra.exact_nullity
    monkeypatch.setattr(
        algebra, "exact_nullity", lambda system: true_nullity(system) + 1
    )
    with pytest.raises(
        DimensionOracleMismatch, match="numeric dimension 2 != exact dimension 3"
    ):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


CELLS = [
    (kind, n, query)
    for kind in KINDS
    for n in range(1, MAX_HALF_DIM + 1)
    for query in SubspaceQuery
]


@pytest.mark.parametrize(
    "kind, n, query",
    CELLS,
    ids=[f"{kind.label}-{n}-{query.value}" for kind, n, query in CELLS],
)
def test_an_off_by_one_closed_form_fails_every_job_that_reads_its_cell(
    monkeypatch, capsys, kind, n, query
):
    true_closed_form = algebra.closed_form_dimension
    true_value = true_closed_form(kind, n, query)

    def off_by_one(k, m, q):
        return true_closed_form(k, m, q) + ((k, m, q) == (kind, n, query))

    monkeypatch.setattr(algebra, "closed_form_dimension", off_by_one)
    # classify notes the subspaces of its kind's theorem rows in the fiber
    # of the entry's half-dimension
    notes = {row.note for row in THEOREMS if kind.product in row.products}
    readers = [
        m.name
        for m in map(catalog, standard_names())
        if query in notes and (m.kind, m.dim) == (kind, 2 * n)
    ]
    jobs = [["algebra-table"]] + [["classify", "--manifold", name] for name in readers]
    for argv in jobs:
        assert cli.run([*argv, "--points", "2"]) == cli.EXIT_INTERNAL, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"internal consistency failure: {query.value} subspace has dimension "
            f"{true_value} for {kind.label}, n={n}; the closed form gives "
            f"{true_value + 1}\n"
        )


def test_only_subspace_dimension_reads_the_closed_form():
    # each computed dimension meets its closed form in one place; a second
    # reader would check a value twice or stand the closed form in for one.
    # A name, an attribute or an import of it counts, so an alias is seen
    # too; the package's re-export is the one import.
    readers = []
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        stack = [(None, ast.parse(path.read_text(encoding="utf-8")))]
        while stack:
            owner, node = stack.pop()
            if "closed_form_dimension" in (
                getattr(node, "attr", None),
                getattr(node, "id", None),
                node.name if isinstance(node, ast.alias) else None,
            ):
                readers.append((path.name, owner))
            if isinstance(node, ast.FunctionDef):
                owner = node.name
            stack.extend((owner, child) for child in ast.iter_child_nodes(node))
    assert sorted(readers, key=str) == [
        ("__init__.py", None),
        ("algebra.py", "subspace_dimension"),
    ]


def test_the_sampled_reader_and_the_row_builder_read_one_table():
    # nabla_j of each of the d^3 unit tensors phi = e_c, raised through the
    # fiber's inner form: the reader's output, lowered again, is column c of
    # the dense matrix of the rows the builder makes for the same condition
    s = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    fibers = standard_fibers() + [ModelFiber.standard(NORDEN, 2).conjugated(s)]
    for fiber in fibers:
        d, g = fiber.dim, fiber.inner.astype(float)
        phi = np.eye(d**3).reshape(d**3, d, d, d)
        nj = (phi @ np.linalg.inv(g)).transpose(0, 1, 3, 2)
        for name in ("nearly", "codazzi"):
            read = algebra.sampled_condition(nj, fiber.kind.product, name)
            lowered = (read.transpose(0, 1, 3, 2) @ g).reshape(d**3, d**3)
            rows = algebra.condition_rows(fiber, name)
            dense = LinearConstraintSystem.from_entries(d**3, *rows).to_dense()
            assert dense.any()
            np.testing.assert_allclose(lowered, dense.T, atol=1e-12)


@pytest.mark.parametrize("name", algebra.BASE)
def test_the_sampled_reader_refuses_terms_that_need_g_or_j(name):
    # the base symmetries move the pairing argument or take J, so the raised
    # stack alone cannot evaluate them
    with pytest.raises(ValueError, match=name):
        algebra.sampled_condition(np.zeros((1, 2, 2, 2)), 1, name)


def test_a_sign_flipped_in_the_nearly_row_moves_both_readers(monkeypatch):
    # the sampled residual and the fiber rows read the one nearly row, so a
    # flipped sign shows on both sides: the classify residual becomes the
    # Codazzi one, and the alternating dimension leaves its closed form
    m = catalog("s6-nearly-kahler")
    fiber = ModelFiber.standard(HERMITIAN, 3)
    before = sample_residuals(m, SamplePlan(seed=0, n_points=4))
    assert subspace_dimension(fiber, SubspaceQuery.ALTERNATING) == 2
    first, (coeff, *rest) = algebra.TERMS["nearly"]
    monkeypatch.setitem(algebra.TERMS, "nearly", (first, (-coeff, *rest)))
    after = sample_residuals(m, SamplePlan(seed=0, n_points=4))
    assert before["nearly"] < 1e-12 < before["codazzi"] == after["nearly"]
    assert exact_nullity(build_constraints(fiber, SubspaceQuery.ALTERNATING)) == 0
    with pytest.raises(TheoremViolation, match="alternating_first_two"):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_every_theorem_note_is_the_subspace_of_its_hypothesis():
    notes = [row for row in THEOREMS if row.note is not None]
    assert len(notes) == 2
    for row in notes:
        assert row.note.condition == row.hypothesis, row.name
    assert SubspaceQuery.FULL.condition is None
    for query in SubspaceQuery:
        assert query.condition is None or query.condition in algebra.TERMS


def test_the_conditions_are_written_in_the_table_alone():
    # no module swaps the first and third slots of nabla J by hand (the
    # Christoffel solve's swap of dg is another formula); the hand-written
    # row builders are gone; and the polarized rendering, the coincide
    # check's independent route, reads nothing from the table
    table_names = {"TERMS", "BASE", "condition_rows", "sampled_condition"}
    table_names |= {"base_rows", "build_constraints", "_concat", "_system"}
    swaps, defined, polarized_reads = [], set(), set()
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                if node.name == "_polarized_rows":
                    polarized_reads |= {
                        getattr(inner, "id", None) or getattr(inner, "attr", None)
                        for inner in ast.walk(node)
                    }
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == (
                "transpose"
            ):
                receiver = node.func.value
                name = getattr(receiver, "id", None) or getattr(receiver, "attr", None)
                if isinstance(receiver, ast.Subscript):
                    name = getattr(receiver.slice, "value", None)
                axes = tuple(getattr(a, "value", None) for a in node.args)
                swaps.append((path.name, name, axes))
    assert ("connection.py", "dg", (0, 3, 2, 1)) in swaps
    by_hand = [s for s in swaps if s[1] in ("nj", "nabla_j") and s[2] == (0, 3, 2, 1)]
    assert by_hand == []
    assert defined.isdisjoint({"_base_rows", "_first_two_rows", "_pairs", "_slots"})
    assert "_polarized_rows" in defined
    assert polarized_reads.isdisjoint(table_names)


def test_the_dimension_table_takes_no_svd_wider_than_a_block(monkeypatch):
    # the widest block of any standard system up to n=3 has 24 unknowns;
    # a dense SVD of a whole n=3 system would have 216
    shapes = []
    true_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return true_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    dimension_table(standard_fibers())
    assert shapes
    assert max(shape[-1] for shape in shapes) == 24



def loop_rows(fiber, extra):
    """The constraint rows written as nested loops, the builders' reference."""
    d, ae, j0 = fiber.dim, fiber.kind.product, fiber.j0
    index = lambda i, j, k: (i * d + j) * d + k  # noqa: E731
    cube = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
    rows = [[(index(i, j, k), 1.0), (index(i, k, j), float(-ae))] for i, j, k in cube]
    for i, j, k in cube:
        row = []
        for m in range(d):
            if j0[m, j]:
                row.append((index(i, m, k), float(j0[m, j])))
            if j0[m, k]:
                row.append((index(i, j, m), float(ae * j0[m, k])))
        rows.append(row)
    if extra == "polarized":
        rows += [[(index(i, i, k), 1.0)] for i in range(d) for k in range(d)]
        rows += [
            [(index(i, j, k), 1.0), (index(j, i, k), 1.0)]
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(d)
        ]
    elif extra is not None:
        rows += [[(index(i, j, k), 1.0), (index(j, i, k), extra)] for i, j, k in cube]
    return LinearConstraintSystem.from_rows(d**3, rows)


def test_constraint_builders_match_the_nested_loops():
    s = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    for kind in KINDS:
        fibers = [ModelFiber.standard(kind, n) for n in (1, 2, 3)]
        fibers.append(ModelFiber.standard(kind, 2).conjugated(s))
        for fiber in fibers:
            d = fiber.dim
            built = {
                None: build_constraints(fiber, SubspaceQuery.FULL),
                1.0: build_constraints(fiber, SubspaceQuery.ALTERNATING),
                -1.0: build_constraints(fiber, SubspaceQuery.SYMMETRIC),
                "polarized": algebra._system(
                    d, fiber.base_rows, algebra._polarized_rows(d)
                ),
            }
            for extra, system in built.items():
                reference = loop_rows(fiber, extra)
                assert (system.n_unknowns, system.n_rows) == (
                    reference.n_unknowns,
                    reference.n_rows,
                ), (kind.label, d, extra)
                for ours, theirs in zip(system.entries, reference.entries):
                    assert np.array_equal(ours, theirs)


# The J-pair split, the lemma on which the all-n argument of
# closed_form_dimension rests: every constraint row of a standard fiber
# lies on unknowns phi(e_i, e_j, e_k) whose indices use one set S of
# J-pairs, |S| <= 3, and the builders treat every pair alike, so a system
# is a direct sum of copies of the *top* subsystems (on the unknowns that
# use all pairs) of the standard |S|-fibers.  ``split_terms`` checks this
# row for row.

# (alpha*epsilon, query) -> (e_1, e_2, e_3): the dimension on the unknowns
# that use exactly k given J-pairs, the table in closed_form_dimension
LABEL_TERMS = {
    (-1, SubspaceQuery.FULL): (0, 8, 12),
    (-1, SubspaceQuery.ALTERNATING): (0, 0, 2),
    (-1, SubspaceQuery.SYMMETRIC): (0, 0, 0),
    (1, SubspaceQuery.FULL): (2, 12, 12),
    (1, SubspaceQuery.ALTERNATING): (0, 0, 0),
    (1, SubspaceQuery.SYMMETRIC): (0, 0, 0),
}


def top_unknowns(kind, n):
    """Mask of the unknowns whose three indices use all n J-pairs.

    A J-pair of ``ModelFiber.standard(kind, n)`` is a rotation block of
    ``j0`` (indices 2b, 2b + 1) when alpha = -1, and {b, n + b} of the
    split when alpha = +1.
    """
    index = np.arange(2 * n)
    bit = 1 << (index // 2 if kind.alpha == -1 else index % n)
    used = bit[:, None, None] | bit[:, None] | bit
    return (used == (1 << n) - 1).ravel()


def pair_maps(kind, m, n):
    """Unknown maps from the standard m-fiber into the n-fiber, one per row.

    Row c sends pair b of the m-fiber to pair ``S[b]`` of the n-fiber, for
    the c-th m-subset S of the n pairs in ``itertools.combinations`` order.
    """
    pairs = np.array(list(itertools.combinations(range(n), m)))
    a = np.arange(2 * m)
    if kind.alpha == -1:
        index = 2 * pairs[:, a // 2] + a % 2
    else:
        index = pairs[:, a % m] + n * (a // m)
    d = 2 * n
    i, j, k = index[:, :, None, None], index[:, None, :, None], index[:, None, None]
    return ((i * d + j) * d + k).reshape(len(pairs), -1)


def rows_within(system, unknowns):
    """Mask of the rows whose every entry lies on a marked unknown."""
    row_of, cols, _ = system.entries
    outside = np.bincount(row_of, weights=~unknowns[cols], minlength=system.n_rows)
    return outside == 0


def select(system, rows):
    """The marked rows as (lengths, columns, coefficients)."""
    row_of, cols, coeffs = system.entries
    keep = rows[row_of]
    return np.bincount(row_of, minlength=system.n_rows)[rows], cols[keep], coeffs[keep]


def row_multiset(lengths, cols, coeffs):
    """Rows as one array, each row's (column, coefficient) pairs sorted, rows sorted.

    Two sets of rows give equal arrays exactly when they are equal
    multisets of sorted rows.  An entry is the complex number column +
    i * coefficient, which numpy sorts by real part, then imaginary part;
    a short row is padded with -1.
    """
    row = np.repeat(np.arange(lengths.size), lengths)
    entry = cols + 1j * coeffs
    order = np.argsort(row * (cols.max(initial=0) + 1) + entry)
    table = np.full((lengths.size, int(lengths.max(initial=0))), -1 + 0j)
    place = np.arange(cols.size) - (np.cumsum(lengths) - lengths)[row]
    table[row, place] = entry[order]
    return table[np.lexsort(table.T[::-1])]


def split_terms(kind, systems, counts, maps=pair_maps):
    """e_1..e_n, the top subsystems' nullities, or None when the lemma fails.

    ``systems[m - 1]`` is the system of the standard m-fiber for m = 1..n,
    all for one query, and ``counts[m - 1]`` its exact dimension for
    m < n.  The lemma, checked at every m from 2 to n: the m-system's rows
    off its top unknowns equal, as multisets of sorted (column,
    coefficient) rows, the images of every smaller system's top rows at
    every set of its pairs under ``maps``.  The pair maps split the other
    unknowns into those images, so dim(m) = sum of C(m, k) * e_k; that
    gives each e_m with m < n from the counts, and e_n is eliminated on
    the top unknowns.
    """
    n = len(systems)
    tops = [top_unknowns(kind, m) for m in range(1, n + 1)]
    inside = [rows_within(s, top) for s, top in zip(systems, tops)]
    top_rows = [select(s, rows) for s, rows in zip(systems, inside)]
    for m in range(2, n + 1):
        images = []
        for k in range(1, m):
            maps_km = maps(kind, k, m)
            lengths, cols, coeffs = top_rows[k - 1]
            copies = len(maps_km)
            cols = maps_km[:, cols].ravel()
            images.append((np.tile(lengths, copies), cols, np.tile(coeffs, copies)))
        rest = select(systems[m - 1], ~inside[m - 1])
        if not np.array_equal(
            row_multiset(*rest), row_multiset(*algebra._concat(*images))
        ):
            return None
    terms = []
    for m, count in enumerate(counts, start=1):
        terms.append(count - sum(math.comb(m, k) * e for k, e in enumerate(terms, 1)))
    lengths, cols, coeffs = top_rows[-1]
    renumber = np.cumsum(tops[-1]) - 1
    top_system = LinearConstraintSystem.from_entries(
        int(tops[-1].sum()), lengths, renumber[cols], coeffs
    )
    return terms + [exact_nullity(top_system)]


def standard_solved(kind, query, top=3):
    """(systems, exact dimensions) of the standard fibers up to n=top, whole."""
    systems = [
        build_constraints(ModelFiber.standard(kind, n), query)
        for n in range(1, top + 1)
    ]
    return systems, [exact_nullity(s) for s in systems]


def test_the_pair_maps_split_the_unknowns():
    # the split's count relies on this: the top unknowns of the n-fiber and
    # the images of the smaller top unknowns cover each unknown once
    for kind in KINDS:
        for n in (2, 3):
            covered = [np.flatnonzero(top_unknowns(kind, n))]
            for m in range(1, n):
                maps = pair_maps(kind, m, n)
                assert len(maps) == math.comb(n, m)
                covered.append(maps[:, top_unknowns(kind, m)].ravel())
            covered = np.sort(np.concatenate(covered))
            assert np.array_equal(covered, np.arange((2 * n) ** 3)), (kind.label, n)
    # the top unknowns at n=3: three distinct pairs, two indices in each
    assert top_unknowns(HERMITIAN, 3).sum() == 3 * 2 * 1 * 2**3


def test_the_split_terms_follow_the_table_and_the_closed_form():
    for kind in KINDS:
        for query in SubspaceQuery:
            terms = LABEL_TERMS[kind.product, query]
            systems, counts = standard_solved(kind, query)
            assert split_terms(kind, systems, counts[:2]) == list(terms)
            # e_2 eliminated on the n=2 top subsystem, not read off the counts
            assert split_terms(kind, systems[:2], counts[:1]) == list(terms[:2])
            for n in range(4):
                polynomial = sum(math.comb(n, k) * e for k, e in enumerate(terms, 1))
                assert closed_form_dimension(kind, n, query) == polynomial
                if n:
                    assert counts[n - 1] == polynomial, (kind.label, query, n)


def record_eliminations(monkeypatch):
    """Unknown counts of the systems that algebra eliminates exactly."""
    sizes = []
    true_nullity = algebra.exact_nullity

    def recording(system):
        sizes.append(system.n_unknowns)
        return true_nullity(system)

    monkeypatch.setattr(algebra, "exact_nullity", recording)
    return sizes


def test_every_standard_query_eliminates_its_whole_system(monkeypatch):
    # each of the table's 36 systems is eliminated once, and whole
    eliminated = record_eliminations(monkeypatch)
    dimension_table(standard_fibers())
    assert sorted(eliminated) == sorted([8, 64, 216] * 12)
    # a lone query eliminates its own system and no other
    for kind in KINDS:
        for query in SubspaceQuery:
            for n in range(1, MAX_HALF_DIM + 1):
                eliminated.clear()
                subspace_dimension(ModelFiber.standard(kind, n), query)
                assert eliminated == [(2 * n) ** 3], (kind.label, query, n)


def test_a_conjugated_fiber_is_eliminated_whole(monkeypatch):
    s = np.eye(6, dtype=int)
    s[0, 3] = 1
    eliminated = record_eliminations(monkeypatch)
    for kind in (HERMITIAN, PRODUCT_RIEMANNIAN):
        eliminated.clear()
        fiber = ModelFiber.standard(kind, 3).conjugated(s)
        dim = subspace_dimension(fiber, SubspaceQuery.FULL)
        assert dim == closed_form_dimension(kind, 3, SubspaceQuery.FULL)
        assert eliminated == [216]


def with_row_zero_edited(system, edit):
    """``system`` with its row 0 edited.

    Row 0 is the swap row of phi(e_0, e_0, e_0), which uses one J-pair, so
    the edit lands where the split reads the n=1 system.
    """
    rows = [list(row) for row in system.rows]
    edit(rows)
    return LinearConstraintSystem.from_rows(system.n_unknowns, rows)


def change_coefficient(rows):
    rows[0][1] = (rows[0][1][0], 3.0)


def drop_row(rows):
    del rows[0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "kind, edit, change",
    [(NORDEN, change_coefficient, -1), (PARA_HERMITIAN, drop_row, 1)],
)
def test_a_broken_system_fails_the_split_lemma(kind, n, edit, change):
    # each edit moves the full dimension of the edited system off its
    # closed form, so a split that let it through would miscount
    full = SubspaceQuery.FULL
    systems, _ = standard_solved(kind, full)
    systems[n - 1] = with_row_zero_edited(systems[n - 1], edit)
    counts = [exact_nullity(s) for s in systems]
    assert counts[n - 1] == closed_form_dimension(kind, n, full) + change
    assert split_terms(kind, systems, counts[:2]) is None


def onto_another_pair(maps):
    maps[0] = maps[1]


def swapped_within_a_pair(maps):
    swap = np.array([1, 0])
    maps[0] = maps[0][((swap[:, None, None] * 2 + swap[:, None]) * 2 + swap).ravel()]


@pytest.mark.parametrize("wrong", [onto_another_pair, swapped_within_a_pair])
@pytest.mark.parametrize("kind", [HERMITIAN, PRODUCT_RIEMANNIAN])
def test_a_wrong_pair_map_fails_the_split_lemma(kind, wrong):
    # one n=1 -> n=3 map sends pair 0 to the wrong unknowns: onto pair 1,
    # which copies pair 1's rows and leaves pair 0's unmatched, or onto
    # pair 0 with its two indices swapped, which negates the structure rows
    def wrong_maps(kind, m, n):
        maps = pair_maps(kind, m, n)
        if (m, n) == (1, 3):
            wrong(maps)
        return maps

    for query in SubspaceQuery:
        systems, counts = standard_solved(kind, query)
        assert split_terms(kind, systems, counts[:2], wrong_maps) is None
