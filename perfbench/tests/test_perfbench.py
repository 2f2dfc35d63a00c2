"""Tests of the benchmark's own code: inputs, tracer and output check.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from aegeom.algebra import ModelFiber  # noqa: E402
from aegeom.manifold import (  # noqa: E402
    SamplePlan,
    StructureKind,
    load_manifold_config,
    validate_structure,
)


def _first_passes(workload, seed, n=3):
    return list(itertools.islice(jobs.passes(workload, seed), n))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_passes_are_deterministic_in_the_seed(workload):
    assert _first_passes(workload, 7) == _first_passes(workload, 7)
    assert _first_passes(workload, 7, 5) != _first_passes(workload, 8, 5)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_drawn_job_has_a_reference_entry(workload):
    reference = checks.load_reference(run.REFERENCE)
    pool = {job.key for job in jobs.pool(workload)}
    for seed in range(5):
        for p in _first_passes(workload, seed, 20):
            assert {job.key for job in p} <= pool
    assert pool <= set(reference)


def test_passes_repeat_the_same_verbs_and_targets():
    first, second = _first_passes("curved-sweep", 3, 2)
    shape = lambda p: sorted((j.verb, j.target) for j in p)  # noqa: E731
    assert shape(first) == shape(second)
    assert len(first) == len(jobs.CURVED_ENTRIES) * len(jobs.VERBS)


def test_configs_are_deterministic(tmp_path):
    names = [jobs.config_name(label, v) for label, _, _ in jobs.KIND_SIGNS for v in range(2)]
    a = [p.read_text() for p in jobs.write_configs(names, tmp_path / "a")]
    b = [p.read_text() for p in jobs.write_configs(names, tmp_path / "b")]
    assert a == b


@pytest.mark.parametrize("label,alpha,epsilon", jobs.KIND_SIGNS)
def test_config_fiber_matches_the_package_standard_fiber(label, alpha, epsilon):
    j0, inner = jobs._fiber_matrices(alpha, epsilon)
    fiber = ModelFiber.standard(StructureKind(alpha, epsilon), jobs.CONFIG_DIM // 2)
    assert np.array_equal(fiber.j0, np.array(j0))
    assert np.array_equal(fiber.inner, np.array(inner))


def test_every_generated_config_validates(tmp_path):
    names = [
        jobs.config_name(label, v)
        for label, _, _ in jobs.KIND_SIGNS
        for v in range(jobs.CONFIG_VARIANTS)
    ]
    for path in jobs.write_configs(names, tmp_path):
        m = load_manifold_config(path)
        report = validate_structure(m, SamplePlan(seed=0, n_points=20))
        assert report.valid, (path.name, report.failures)


def test_config_reference_is_integrable_and_not_kahler_type():
    reference = checks.load_reference(run.REFERENCE)
    for job in jobs.pool("config-sweep"):
        if job.verb == "classify":
            verdicts = reference[job.key]["exact"]["verdicts"]
            assert verdicts["integrable"] and not verdicts["kahler_type"], job.key


def test_every_wrapped_name_resolves():
    for module_name, attr, _, _ in tracing.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert not hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__")


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "WRAPPED", tracing.WRAPPED + (("aegeom.cli", "no_such_function", "x", None),)
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["aegeom.cli.no_such_function"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    # layer, parent, job, start, end, extra
    tracer.spans[:] = [
        ("cli.run", -1, 0, 0.0, 10.0, None),
        ("linalg.null_space", 0, 0, 1.0, 4.0, 6),
        ("linalg.null_space", 0, 0, 5.0, 6.0, 4),
    ]
    totals = tracer.layer_totals()
    assert totals["cli.run"]["self_s"] == pytest.approx(6.0)
    assert totals["linalg.null_space"]["calls"] == 2
    assert totals["linalg.null_space"]["s"] == pytest.approx(4.0)
    assert totals["linalg.null_space"]["cells"] == 10


def test_traced_job_counts_distinct_subspace_queries():
    cli = importlib.import_module("aegeom.cli")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        result = run.run_job(cli, jobs.Job("classify", "pullback-integrable-norden", 0))
    finally:
        tracer.uninstall()
    assert result.exit_code == 0
    totals = tracer.layer_totals()
    assert totals["algebra.subspace_dimension"]["calls"] == 2
    assert totals["algebra.subspace_dimension"]["distinct"] == 2
    assert totals["manifold.eval_with_derivatives"]["calls"] == 50


def _classify_output():
    cli = importlib.import_module("aegeom.cli")
    job = jobs.Job("classify", "random-norden-42", 1)
    result = run.run_job(cli, job)
    return job, result


def test_check_accepts_reordering_noise_and_rejects_real_changes():
    reference = checks.load_reference(run.REFERENCE)
    job, result = _classify_output()
    ref = reference[job.key]
    assert checks.compare("classify", result.exit_code, result.stdout, ref) is None

    payload = json.loads(result.stdout)
    key = next(iter(ref["approx"])).split(".", 1)[1]
    payload["residuals"][key] *= 1 + 1e-9
    assert checks.compare("classify", 0, json.dumps(payload), ref) is None
    payload["residuals"][key] *= 1 + 1e-3
    assert "residuals." + key in checks.compare("classify", 0, json.dumps(payload), ref)

    payload = json.loads(result.stdout)
    payload["verdicts"]["integrable"] = False
    assert "verdicts" in checks.compare("classify", 0, json.dumps(payload), ref)
    assert "exit code" in checks.compare("classify", 1, result.stdout, ref)


def test_reference_round_trips_through_packing():
    reference = checks.load_reference(run.REFERENCE)
    assert checks.unpack_reference(checks.pack_reference(reference)) == reference
