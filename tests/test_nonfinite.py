"""Fields that overflow or divide by zero fail loudly, naming cell and point.

A NaN would otherwise vanish in the max over sample points and report every
residual as zero, so both evaluators check every value (and the dual path
every derivative) before anything is reduced.
"""

import json

import pytest

from aegeom.cli import EXIT_FAIL, run
from aegeom.errors import NonFiniteField
from aegeom.manifold import (
    HERMITIAN,
    Box,
    ChartedManifold,
    SamplePlan,
    eval_with_derivatives,
    evaluate_fields,
    load_manifold_config,
)

# overflows to inf - inf wherever |1000 * x1| exceeds about 34
OVERFLOW_CELL = "1 + (1000*x1)^200 - (1000*x1)^200"
# undefined at every point
DIVISION_CELL = "1/(x1-x1)"

VERBS = ("validate", "classify", "verify", "identities")
PLAN = SamplePlan()


def write_config(tmp_path, cell):
    path = tmp_path / "bad-cell.json"
    path.write_text(
        json.dumps(
            {
                "kind": {"alpha": -1, "epsilon": 1},
                "dim": 2,
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                "metric": [[cell, "0"], ["0", "1"]],
                "structure": [["0", "-1"], ["1", "0"]],
            }
        )
    )
    return path


def first_failing_point(evaluate, m):
    for point in PLAN.points(m.domain):
        try:
            evaluate(m, point)
        except NonFiniteField:
            return tuple(float(x) for x in point)
    raise AssertionError("no sample point fails")


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("cell", [OVERFLOW_CELL, DIVISION_CELL])
def test_non_finite_config_exits_1_naming_cell_and_point(tmp_path, capsys, verb, cell):
    path = write_config(tmp_path, cell)
    m = load_manifold_config(path)
    expected = first_failing_point(eval_with_derivatives, m)
    if cell == DIVISION_CELL:
        assert expected == tuple(float(x) for x in PLAN.points(m.domain)[0])

    code = run([verb, "--manifold", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: metric[0][0] of bad-cell ")
    assert f"at point {expected}" in captured.err


def test_callable_that_raises_is_reported_for_its_field():
    m = ChartedManifold(
        name="raising",
        kind=HERMITIAN,
        dim=2,
        domain=Box((-1.0, -1.0), (1.0, 1.0)),
        metric=lambda c: [[1.0, 0.0], [0.0, 1.0]],
        structure=lambda c: [[0.0, -1.0 / 0.0], [1.0, 0.0]],
    )
    for evaluate in (evaluate_fields, eval_with_derivatives):
        with pytest.raises(NonFiniteField, match=r"structure of raising .* \(0\.5, 0\.25\)"):
            evaluate(m, (0.5, 0.25))
