"""Every seed-0 catalog job of the benchmark matches its stored reference.

``perfbench/reference.json`` holds the exit code and JSON report of each
distinct benchmark job, and ``perfbench/checks.py`` compares a run with it:
exact fields exactly, floats to six significant digits.  This runs the
seed-0 jobs on catalog entries through ``cli.run`` in this process, so an
output change fails the tests as well as the benchmark.  Both perfbench
modules are loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from aegeom.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


jobs = _load("jobs")
checks = _load("checks")
REFERENCE = checks.load_reference(PERFBENCH / "reference.json")
CATALOG_JOBS = list(
    {
        job.key: job
        for workload in jobs.WORKLOADS
        for job in jobs.pool(workload)
        if job.seed == 0 and not job.is_config
    }.values()
)


def test_the_seed_zero_catalog_jobs_cover_every_verb():
    assert {job.verb for job in CATALOG_JOBS} == set(jobs.VERBS) | {"algebra-table"}
    assert all(job.key in REFERENCE for job in CATALOG_JOBS)


@pytest.mark.parametrize("job", CATALOG_JOBS, ids=lambda job: job.key)
def test_catalog_job_matches_the_reference(job, tmp_path, capsys):
    code = run(job.argv(tmp_path))
    out = capsys.readouterr().out
    assert checks.compare(job.verb, code, out, REFERENCE[job.key]) is None
