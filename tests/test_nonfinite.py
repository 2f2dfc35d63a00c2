"""Fields that overflow or divide by zero fail loudly, naming cell and point.

A NaN would otherwise vanish in the max over sample points and report every
residual as zero, so both evaluators check every value (and the dual path
every derivative) before anything is reduced.  The same holds for the
stacks derived from finite fields: a residual that is not finite never
passes a check, and numpy's warnings about it never reach stderr.
"""

import json

import numpy as np
import pytest

from aegeom.cli import EXIT_FAIL, EXIT_PASS, run
from aegeom.connection import derived_tensors, identity_residuals, vector_triples
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
@pytest.mark.parametrize(
    "cell", [OVERFLOW_CELL, DIVISION_CELL, "1 + 1/0", "1 + (1e200)^2"]
)
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
        fields=lambda c: ([[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0 / 0.0], [1.0, 0.0]]),
    )
    for evaluate in (evaluate_fields, eval_with_derivatives):
        with pytest.raises(NonFiniteField, match=r"fields of raising .* \(0\.5, 0\.25\)"):
            evaluate(m, (0.5, 0.25))


# J^2 = Id and g(J., J.) = g hold for every f, but with f = 1e-297/(x1 +
# 1e-300) on a domain 1e-300 wide the derivatives reach about 1e300 and the
# derived stacks overflow to NaN while every field value stays below 1000
STEEP_F = "1e-297/(x1 + 1e-300)"
STEEP_H = "0.5e-297/(x1 + 1e-300)"
STEEP = {
    "kind": {"alpha": 1, "epsilon": 1},
    "dim": 2,
    "domain": {"lo": [0, 0], "hi": [1e-300, 1]},
    "structure": [["1", STEEP_F], ["0", "-1"]],
    "metric": [["1", STEEP_H], [STEEP_H, f"1 + ({STEEP_H})^2"]],
}
# finite fields whose axiom residuals overflow: J^2 and J^T g J reach inf
MIXED = {
    "kind": {"alpha": 1, "epsilon": 1},
    "dim": 2,
    "domain": {"lo": [-1, -1], "hi": [1, 1]},
    "metric": [["1e150", "0"], ["0", "1e150"]],
    "structure": [["1e160", "1e160"], ["1e160", "-1e160"]],
}
# metric_isometry fails by about 3e144, after cross-check stacks overflow
BIG = {
    "kind": {"alpha": -1, "epsilon": 1},
    "dim": 2,
    "domain": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
    "metric": [["1/(1e160*(2+x1))", "0"], ["0", "1e160*(2+x1)"]],
    "structure": [["0", "-1e160*(2+x1)"], ["1/(1e160*(2+x1))", "0"]],
}


def write_raw(tmp_path, name, raw):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("verb", VERBS)
def test_derived_stack_that_is_not_finite_exits_1_naming_check_and_point(
    tmp_path, capsys, verb, seed
):
    path = write_raw(tmp_path, "steep", STEEP)
    code = run([verb, "--manifold", str(path), "--seed", str(seed)])
    captured = capsys.readouterr()
    if verb == "validate":
        assert code == EXIT_PASS
        assert captured.err == ""
        return
    assert code == EXIT_FAIL
    assert captured.out == ""
    check = "identity anticommute" if verb == "identities" else "(nabla J) J + J"
    assert captured.err.startswith(f"error: steep: {check}")
    assert "residual nan at (" in captured.err
    # the named point is a sample point, and fails the same way on its own
    m = load_manifold_config(path)
    point = captured.err.rsplit(" at ", 1)[1].strip()
    samples = SamplePlan(seed=seed).points(m.domain)
    assert point in [str(tuple(map(float, p))) for p in samples]
    alone = [float(x) for x in point.strip("()").split(", ")]
    with pytest.raises(NonFiniteField, match="residual nan"), np.errstate(all="ignore"):
        if verb == "identities":
            identity_residuals(m, alone, vector_triples(seed, 3, 2))
        else:
            derived_tensors(m, alone)


def test_validate_lists_an_axiom_whose_residual_is_not_finite(tmp_path, capsys):
    path = write_raw(tmp_path, "mixed", MIXED)
    assert run(["validate", "--manifold", str(path), "--format", "json"]) == EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    for key in ("structure_squared", "metric_isometry", "pairing_swap"):
        assert report["residuals"][key] == float("inf")
        assert key in report["failures"]


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name", ["steep", "mixed", "big"])
def test_overflow_writes_one_error_line_and_no_warning(tmp_path, capsys, verb, name):
    path = write_raw(tmp_path, name, {"steep": STEEP, "mixed": MIXED, "big": BIG}[name])
    run([verb, "--manifold", str(path)])
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert len(err.splitlines()) <= 1
