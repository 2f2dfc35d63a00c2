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
    subspace_dimensions,
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
from support import conjugated, dense, system_from_rows


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
    eye = np.eye(2, dtype=int)
    with pytest.raises(UnsupportedDimension):
        ModelFiber(n=0, kind=HERMITIAN, j0=eye, inner=eye)


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
    with pytest.raises(ValueError, match="fiber matrices must be 2x2"):
        ModelFiber(n=1, kind=HERMITIAN, j0=np.eye(4, dtype=int), inner=eye)
    trace = "^product-riemannian fiber pair fails structure_trace$"
    with pytest.raises(ValueError, match=trace):
        ModelFiber(
            n=1,
            kind=PRODUCT_RIEMANNIAN,
            j0=np.eye(2, dtype=int),
            inner=np.eye(2, dtype=int),
        )  # nonzero trace
    # J squares to (1 + 2**64) Id, which int64 products wrap to Id: the
    # pair must fail here, not split the two rank routes (numeric 4, exact 2)
    wraps = np.array([[1, 2**32], [2**32, -1]])
    with pytest.raises(ValueError, match="fails structure_squared$"):
        ModelFiber(n=1, kind=PRODUCT_RIEMANNIAN, j0=wraps, inner=eye)
    # an integer-valued float past the int64 range would cast to -2**63 Id
    with pytest.raises(ValueError, match="has an entry that is not an integer"):
        ModelFiber(n=1, kind=HERMITIAN, j0=j0, inner=[[1e20, 0.0], [0.0, 1e20]])
    g, j = (a[None].astype(object) for a in (eye, wraps))
    exact = axiom_residuals(PRODUCT_RIEMANNIAN, g, j)
    assert [key for key, r in exact.items() if r.any()] == [
        "structure_squared",
        "metric_isometry",
    ]


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
            moved = conjugated(fiber, s)
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
    moved = conjugated(fiber, s)
    for query in SubspaceQuery:
        assert subspace_dimension(moved, query) == subspace_dimension(fiber, query)


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
    fibers = standard_fibers()
    dims = [subspace_dimension(f, SubspaceQuery.ALTERNATING) for f in fibers]
    assert alternating_definitions_coincide(fibers, dims) == [True] * len(fibers)
    # one verdict per fiber, so a dimension list of another length raises
    with pytest.raises(ValueError):
        alternating_definitions_coincide(fibers, dims[:-1])


def test_the_coincide_check_reads_the_dimension_and_both_nullities(monkeypatch):
    # one exact pass takes every fiber's two systems, so each fault below is
    # placed in one fiber's share of that pass: a wrong agreed dimension
    # either way, or either nullity off by one (for the union, one short: U
    # not inside V); every other fiber's verdict stays True
    fibers = standard_fibers()
    dims = [subspace_dimension(f, SubspaceQuery.ALTERNATING) for f in fibers]
    true_nullities = algebra.exact_nullities
    fault, seen = {}, []

    def off_by_one(systems):
        seen.append([s.n_rows for s in systems])
        out = true_nullities(systems)
        for index, by in fault.items():
            out[index] += by
        return out

    monkeypatch.setattr(algebra, "exact_nullities", off_by_one)
    for k in range(len(fibers)):
        expected = [i != k for i in range(len(fibers))]
        for by in (-1, 1):
            wrong = dims.copy()
            wrong[k] += by
            assert alternating_definitions_coincide(fibers, wrong) == expected
        for which, by in itertools.product((0, 1), (-1, 1)):
            fault = {2 * k + which: by}
            assert alternating_definitions_coincide(fibers, dims) == expected
            fault = {}
    # one exact pass per call, over each fiber's polarized system and its
    # union with the antisymmetry rows: the 2 d^3 base rows, the d*d
    # diagonal and C(d, 2)*d pair rows, and the d^3 swap rows
    rows = []
    for f in fibers:
        polarized = 2 * f.dim**3 + f.dim**2 + math.comb(f.dim, 2) * f.dim
        rows += [polarized, polarized + f.dim**3]
    assert rows[-2:] == [432 + 126, 432 + 126 + 216]
    assert seen == [rows] * (len(fibers) * 6)


def test_a_sign_flipped_polarized_pair_row_fails_the_coincide_check(monkeypatch):
    # phi(e_0, e_2, e_4) takes one index from each J-pair of the hermitian
    # n=3 fiber, where the realified (3,0)-forms do not vanish; its pair
    # row turned into phi(e_0, e_2, e_4) - phi(e_2, e_0, e_4) = 0 cuts them
    # down.  Slot 16 starts a pair row only at d = 6, and the other n=3
    # fibers keep their verdict
    fibers = standard_fibers()
    dims = [subspace_dimension(f, SubspaceQuery.ALTERNATING) for f in fibers]
    polarized = algebra._polarized_rows
    flipped = []

    def one_row_flipped(d):
        lengths, cols, coeffs = polarized(d)
        ends = np.cumsum(lengths)
        row = (lengths == 2) & (cols[ends - lengths] == 16)
        flipped.append((d, int(row.sum())))
        coeffs = coeffs.copy()
        coeffs[ends[row] - 1] = -1.0
        return lengths, cols, coeffs

    monkeypatch.setattr(algebra, "_polarized_rows", one_row_flipped)
    verdicts = alternating_definitions_coincide(fibers, dims)
    assert sorted(flipped) == [(2, 0), (4, 0), (6, 1)]
    assert verdicts == [(f.kind, f.n) != (HERMITIAN, 3) for f in fibers]


def test_the_coincide_union_reads_the_antisymmetry_rows(monkeypatch):
    # with the Codazzi rows in place of the antisymmetry rows, the union
    # cuts the polarized subspace to zero: only those rows tell U from V
    alternating = SubspaceQuery.ALTERNATING
    dim = subspace_dimension(ModelFiber.standard(HERMITIAN, 3), alternating)
    true_rows = algebra.condition_rows
    fiber = ModelFiber.standard(HERMITIAN, 3)
    codazzi = true_rows(fiber, "codazzi")
    assert not np.array_equal(codazzi[2], true_rows(fiber, "nearly")[2])
    monkeypatch.setattr(
        algebra,
        "condition_rows",
        lambda f, name: codazzi if name == "nearly" else true_rows(f, name),
    )
    # a fiber keeps the rows it built, so the patched rows reach a new one
    assert alternating_definitions_coincide([fiber], [dim]) == [False]


def test_a_fiber_builds_each_conditions_rows_once(monkeypatch):
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
        [fiber], [subspace_dimension(fiber, SubspaceQuery.ALTERNATING)]
    )
    # each condition once, in the order first asked for: the coincide
    # check's union reads the nearly rows the alternating system built
    names = list(algebra.BASE) + ["nearly", "codazzi"]
    assert builds == [("para-hermitian", 2, name) for name in names]
    # the shared arrays are read-only, so no system can change another's rows
    for name in names:
        assert not any(a.flags.writeable for a in fiber.rows(name))
    assert len(builds) == len(names)
    # a fiber made anew, as in the next job, builds its own
    ModelFiber.standard(PARA_HERMITIAN, 2).rows("nearly")
    assert builds[-1] == ("para-hermitian", 2, "nearly")
    assert len(builds) == len(names) + 1


def shifted(monkeypatch, route, by=1):
    """Patch ``algebra``'s batch ``route`` to read every nullity ``by`` too high."""
    true_route = getattr(algebra, route)
    monkeypatch.setattr(
        algebra, route, lambda systems: [d + by for d in true_route(systems)]
    )


def test_wrong_numeric_rank_trips_the_dimension_oracle(monkeypatch):
    fiber = ModelFiber.standard(PARA_HERMITIAN, 2)
    subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    shifted(monkeypatch, "numeric_nullities", by=-1)
    with pytest.raises(
        DimensionOracleMismatch, match="numeric dimension -1 != exact dimension 0"
    ):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_a_cutoff_above_every_singular_value_trips_the_dimension_oracle(monkeypatch):
    # the largest singular values no longer count toward the rank
    fiber = ModelFiber.standard(PARA_HERMITIAN, 2)
    true_cutoffs = linalg._cutoffs

    def raised(spectra, owner, count):
        values, who, cut = true_cutoffs(spectra, owner, count)
        return values, who, cut / linalg.NULL_SPACE_TOL

    monkeypatch.setattr(linalg, "_cutoffs", raised)
    with pytest.raises(DimensionOracleMismatch):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_wrong_exact_rank_trips_the_dimension_oracle(monkeypatch):
    fiber = ModelFiber.standard(HERMITIAN, 3)
    subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    shifted(monkeypatch, "exact_nullities")
    with pytest.raises(DimensionOracleMismatch, match="exact dimension 3"):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_a_split_that_drops_a_row_trips_the_dimension_oracle(monkeypatch):
    # the first block of the product-Riemannian n=3 full system is the
    # unknown phi_000 alone: its swap row cancels, and the structure row
    # 2 phi_000 = 0 is the only one that pins it, so with that row labelled
    # as in no block the numeric route finds one null vector too many
    fiber = ModelFiber.standard(PRODUCT_RIEMANNIAN, 3)
    true_blocks = linalg._blocks

    def dropping(system):
        row_block, col_block = true_blocks(system)
        (rows,) = np.nonzero(row_block == 0)
        row_block = row_block.copy()
        row_block[rows[-1]] = col_block.max() + 1
        return row_block, col_block

    monkeypatch.setattr(linalg, "_blocks", dropping)
    with pytest.raises(DimensionOracleMismatch, match="numeric dimension 55"):
        subspace_dimension(fiber, SubspaceQuery.FULL)


def test_a_split_that_cuts_a_block_in_two_trips_the_dimension_oracle(monkeypatch):
    # the back half of the largest block's unknowns relabelled as a block of
    # its own, with no rows: its entries still add in at their places in
    # the block, over the front half's, and its unknowns read as free
    fiber = ModelFiber.standard(HERMITIAN, 3)
    true_blocks = linalg._blocks

    def cutting(system):
        row_block, col_block = true_blocks(system)
        count = col_block.max() + 1
        cols = np.flatnonzero(col_block == np.bincount(col_block).argmax())
        col_block = col_block.copy()
        col_block[cols[cols.size // 2 :]] = count
        # a row in no block moves past the new block
        return np.where(row_block == count, count + 1, row_block), col_block

    monkeypatch.setattr(linalg, "_blocks", cutting)
    with pytest.raises(DimensionOracleMismatch, match=" != exact dimension 2 "):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)


def test_routes_that_agree_off_the_closed_form_are_a_theorem_violation(
    monkeypatch, capsys
):
    # both rank routes find one dimension too many, so they agree and only
    # the closed form catches the value
    for route in ("numeric_nullities", "exact_nullities"):
        shifted(monkeypatch, route)
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
    shifted(monkeypatch, "exact_nullities")
    with pytest.raises(
        DimensionOracleMismatch, match="numeric dimension 2 != exact dimension 3"
    ):
        subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
    # in a batch the first failing cell in the order given is reported,
    # whichever check it fails: here n=1 is off its closed form and n=2
    # has a route split
    monkeypatch.undo()
    cells = [(ModelFiber.standard(NORDEN, n), SubspaceQuery.FULL) for n in (1, 2)]
    true_form, true_nullities = algebra.closed_form_dimension, algebra.exact_nullities
    monkeypatch.setattr(
        algebra,
        "closed_form_dimension",
        lambda kind, n, q: 99 if n == 1 else true_form(kind, n, q),
    )
    monkeypatch.setattr(
        algebra,
        "exact_nullities",
        lambda systems: [
            d + (s.n_unknowns == 64) for s, d in zip(systems, true_nullities(systems))
        ],
    )
    with pytest.raises(TheoremViolation, match="n=1; the closed form gives 99"):
        subspace_dimensions(cells)
    with pytest.raises(DimensionOracleMismatch, match="for norden, n=2, "):
        subspace_dimensions(cells[::-1])


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


def test_only_subspace_dimensions_reads_the_closed_form():
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
        ("algebra.py", "subspace_dimensions"),
    ]


def test_the_sampled_reader_and_the_row_builder_read_one_table():
    # nabla_j of each of the d^3 unit tensors phi = e_c, raised through the
    # fiber's inner form: the reader's output, lowered again, is column c of
    # the dense matrix of the rows the builder makes for the same condition
    s = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    fibers = standard_fibers() + [conjugated(ModelFiber.standard(NORDEN, 2), s)]
    for fiber in fibers:
        d, g = fiber.dim, fiber.inner.astype(float)
        phi = np.eye(d**3).reshape(d**3, d, d, d)
        nj = (phi @ np.linalg.inv(g)).transpose(0, 1, 3, 2)
        for name in ("nearly", "codazzi"):
            read = algebra.sampled_condition(nj, fiber.kind.product, name)
            lowered = (read.transpose(0, 1, 3, 2) @ g).reshape(d**3, d**3)
            rows = algebra.condition_rows(fiber, name)
            matrix = dense(LinearConstraintSystem.from_entries(d**3, *rows))
            assert matrix.any()
            np.testing.assert_allclose(lowered, matrix.T, atol=1e-12)


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
    # a fiber keeps the rows it built: a new one, as in the next job, reads
    # the flipped sign
    fiber = ModelFiber.standard(HERMITIAN, 3)
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
    table_names |= {"rows", "build_constraints", "_system"}
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
    return system_from_rows(d**3, rows)


def test_constraint_builders_match_the_nested_loops():
    s = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    for kind in KINDS:
        fibers = [ModelFiber.standard(kind, n) for n in (1, 2, 3)]
        fibers.append(conjugated(ModelFiber.standard(kind, 2), s))
        for fiber in fibers:
            d = fiber.dim
            built = {
                None: build_constraints(fiber, SubspaceQuery.FULL),
                1.0: build_constraints(fiber, SubspaceQuery.ALTERNATING),
                -1.0: build_constraints(fiber, SubspaceQuery.SYMMETRIC),
                "polarized": algebra._system(
                    d, *map(fiber.rows, algebra.BASE), algebra._polarized_rows(d)
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
        joined = (np.concatenate(arrays) for arrays in zip(*images))
        if not np.array_equal(row_multiset(*rest), row_multiset(*joined)):
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
    """Unknown counts of the systems in each exact pass that algebra makes."""
    passes = []
    true_nullities = algebra.exact_nullities

    def recording(systems):
        passes.append([system.n_unknowns for system in systems])
        return true_nullities(systems)

    monkeypatch.setattr(algebra, "exact_nullities", recording)
    return passes


def test_every_standard_query_eliminates_its_whole_system(monkeypatch):
    # the table's 36 systems are eliminated whole, in one pass, in table order
    eliminated = record_eliminations(monkeypatch)
    dimension_table(standard_fibers())
    assert eliminated == [
        [(2 * n) ** 3 for _ in KINDS for n in (1, 2, 3) for _ in SubspaceQuery]
    ]
    # a lone query eliminates its own system and no other
    for kind in KINDS:
        for query in SubspaceQuery:
            for n in range(1, MAX_HALF_DIM + 1):
                eliminated.clear()
                subspace_dimension(ModelFiber.standard(kind, n), query)
                assert eliminated == [[(2 * n) ** 3]], (kind.label, query, n)


def test_a_conjugated_fiber_is_eliminated_whole(monkeypatch):
    s = np.eye(6, dtype=int)
    s[0, 3] = 1
    eliminated = record_eliminations(monkeypatch)
    for kind in (HERMITIAN, PRODUCT_RIEMANNIAN):
        eliminated.clear()
        fiber = conjugated(ModelFiber.standard(kind, 3), s)
        dim = subspace_dimension(fiber, SubspaceQuery.FULL)
        assert dim == closed_form_dimension(kind, 3, SubspaceQuery.FULL)
        assert eliminated == [[216]]


def with_row_zero_edited(system, edit):
    """``system`` with its row 0 edited.

    Row 0 is the swap row of phi(e_0, e_0, e_0), which uses one J-pair, so
    the edit lands where the split reads the n=1 system.
    """
    rows = [list(row) for row in system.rows]
    edit(rows)
    return system_from_rows(system.n_unknowns, rows)


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
