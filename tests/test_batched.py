"""The batched forward-mode path against the same code one point at a time.

Each sweep evaluates all of its sample points as one stack.  Arithmetic is
elementwise, so the fields and their derivatives must match single-point
evaluation bit for bit; the reductions on top may only reorder sums.
"""

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from aegeom import manifold
from aegeom.catalog import catalog, standard_names
from aegeom.classify import CONDITIONS, sample_residuals
from aegeom.connection import christoffel, derived_tensors, identity_residuals
from aegeom.errors import GeometryError, InvalidStructure
from aegeom.manifold import (
    HERMITIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    eval_with_derivatives,
    load_manifold_config,
)

PLAN = SamplePlan(seed=3, n_points=7, n_vector_triples=6)

CONFIG = {
    "name": "wavy",
    "kind": {"alpha": -1, "epsilon": 1},
    "dim": 2,
    "domain": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
    "metric": [["1 + x1^3/(2 + x2)", "0"], ["0", "1 + x1^3/(2 + x2)"]],
    "structure": [["0", "-1"], ["1", "0"]],
}


@dataclass(frozen=True)
class FixedPoints(SamplePlan):
    """A plan that samples exactly the given points."""

    fixed: Tuple[Tuple[float, ...], ...] = ()

    def points(self, domain):
        return np.asarray(self.fixed, dtype=float)


def one_point(p):
    return FixedPoints(n_points=1, fixed=(tuple(p),))


def manifolds(tmp_path):
    path = tmp_path / "wavy.json"
    path.write_text(json.dumps(CONFIG))
    return [catalog(name) for name in standard_names()] + [
        load_manifold_config(path)
    ]


def test_stacked_evaluation_equals_single_points_exactly(tmp_path):
    for m in manifolds(tmp_path):
        points = PLAN.points(m.domain)
        stacks = eval_with_derivatives(m, points)
        for n, point in enumerate(points):
            singles = eval_with_derivatives(m, point)
            for stack, single in zip(stacks, singles):
                assert np.array_equal(stack[n], single[0]), m.name


def test_connection_stacks_equal_stacks_of_one_exactly():
    for name in standard_names():
        m = catalog(name)
        points = PLAN.points(m.domain)
        gamma = christoffel(m, points)
        arrays = derived_tensors(m, points)
        for n in range(len(points)):
            assert np.array_equal(gamma[n], christoffel(m, points[n : n + 1])[0])
            single = derived_tensors(m, points[n : n + 1])
            assert set(single) == set(arrays)
            for key, stack in arrays.items():
                assert np.array_equal(stack[n], single[key][0]), (name, key, n)


def test_constant_cells_broadcast_with_zero_gradient():
    m = catalog("flat-para-kahler")
    g, dg, j, dj = eval_with_derivatives(m, PLAN.points(m.domain))
    assert g.shape == (7, 2, 2) and dg.shape == (7, 2, 2, 2)
    assert np.array_equal(g, np.broadcast_to([[0.0, 1.0], [1.0, 0.0]], g.shape))
    assert not dg.any() and not dj.any()


def test_sample_residuals_are_the_worst_single_point_residuals(tmp_path):
    for m in manifolds(tmp_path):
        swept = sample_residuals(m, PLAN)
        singles = [sample_residuals(m, one_point(p)) for p in PLAN.points(m.domain)]
        for key in CONDITIONS:
            worst = max(s[key] for s in singles)
            assert swept[key] == pytest.approx(worst, rel=1e-12), (m.name, key)


def test_identity_residuals_are_the_worst_single_point_residuals(tmp_path):
    for m in manifolds(tmp_path):
        points = PLAN.points(m.domain)
        triples = PLAN.vector_triples(m.dim)
        swept = identity_residuals(m, points, triples)
        singles = [identity_residuals(m, p, triples) for p in points]
        assert set(swept) == set(singles[0])
        for key, value in swept.items():
            worst = max(s[key] for s in singles)
            assert value == pytest.approx(worst, rel=1e-12), (m.name, key)


def test_sweeps_in_blocks_match_one_pass(monkeypatch):
    m = catalog("pullback-integrable-para-hermitian")
    plan = SamplePlan(seed=5, n_points=10, n_vector_triples=4)

    def sweep():
        points, triples = plan.points(m.domain), plan.vector_triples(m.dim)
        return sample_residuals(m, plan), identity_residuals(m, points, triples)

    whole = sweep()
    monkeypatch.setattr(manifold, "SWEEP_BLOCK", 3)
    assert sweep() == whole


def slightly_crooked():
    # a rotation bent by 1e-7 * x1^8 in one cell: the axioms fail only
    # where |x1| is large enough, so only some sample points break them
    return ChartedManifold(
        name="slightly-crooked",
        kind=HERMITIAN,
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        fields=lambda c: (
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.0, -1.0 + 1e-7 * c[0] ** 8], [1.0, 0.0]],
        ),
    )


@pytest.mark.parametrize("block", [manifold.SWEEP_BLOCK, 2])
def test_sweep_reports_the_first_failing_point_in_sample_order(monkeypatch, block):
    monkeypatch.setattr(manifold, "SWEEP_BLOCK", block)
    m = slightly_crooked()
    plan = SamplePlan(n_points=10)
    expected = None
    for index, point in enumerate(plan.points(m.domain)):
        try:
            derived_tensors(m, point)
        except GeometryError as exc:
            expected = (index, type(exc), str(exc))
            break
    assert expected is not None and expected[0] > 0
    assert expected[1] is InvalidStructure
    with pytest.raises(InvalidStructure) as caught:
        sample_residuals(m, plan)
    assert str(caught.value) == expected[2]
