"""Benchmark of the ``aegeom`` command line, driven in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curved-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One closed-loop client calls ``aegeom.cli.run(argv)`` in this process, each
job starting when the previous one returns.  Jobs come in passes (see
``jobs.py``); whole passes run until ``--seconds`` have elapsed.  Every
job's exit code and JSON report are checked against ``reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs each pass twice, untraced and then with the layer
wrappers of ``tracing.py`` installed, and reports per-layer metrics per
traced pass plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable summary; a fuller record of the run (environment, sample
counts, mismatches) and, when traced, every span are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CONFIG_DIR = OUT / "configs"
REFERENCE = HERE / "reference.json"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 9
P90_MIN_JOBS = 100

# Per-layer metrics: the layer, then what is reported for it.  ``share`` is
# self time over traced wall time; the rest are totals per traced pass.
LAYER_METRICS = (
    ("manifold.eval_with_derivatives", ("calls", "self_s", "us_per_call", "share")),
    ("manifold.validate_structure", ("self_s",)),
    ("manifold.load_manifold_config", ("s",)),
    ("catalog.catalog", ("calls", "s")),
    ("connection.identity_residuals", ("calls", "self_s", "share")),
    ("classify.sample_residuals", ("calls", "self_s", "share")),
    ("algebra.subspace_dimension", ("calls", "distinct", "useful_ratio", "self_s")),
    ("algebra.alternating_definitions_coincide", ("self_s",)),
    ("linalg.null_space", ("calls", "s", "cells", "share")),
    ("linalg.exact_nullity", ("calls", "s", "share")),
)
LAYER_UNITS = {
    "calls": "count",
    "distinct": "count",
    "cells": "count",
    "s": "s",
    "self_s": "s",
    "us_per_call": "us",
    "share": "ratio",
    "useful_ratio": "ratio",
}


@dataclass
class JobResult:
    job: jobs.Job
    exit_code: Optional[int]
    seconds: float
    stdout: str
    error: str


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    results: List[JobResult]


def write_inputs(workload: str) -> None:
    """Write the workload's config files; done once, before set-up is timed."""
    jobs.write_configs(_config_names(workload), CONFIG_DIR)


def _config_names(workload: str) -> List[str]:
    return sorted({j.target for j in jobs.pool(workload) if j.is_config})


def set_up(workload: str):
    """Import the package afresh and resolve every manifold the workload uses.

    Returns the ``aegeom.cli`` module.  Earlier imports are dropped first, so
    every repetition pays the whole import.  Configs are parsed from the
    files ``write_inputs`` wrote.
    """
    for name in [n for n in sys.modules if n == "aegeom" or n.startswith("aegeom.")]:
        del sys.modules[name]
    cli = importlib.import_module("aegeom.cli")
    catalog = importlib.import_module("aegeom.catalog")
    manifold = importlib.import_module("aegeom.manifold")
    for name in _config_names(workload):
        manifold.load_manifold_config(jobs.config_path(CONFIG_DIR, name))
    if workload == "algebra-table":
        names = catalog.standard_names()
    else:
        pool = jobs.pool(workload)
        names = sorted({j.target for j in pool if j.target and not j.is_config})
    for name in names:
        catalog.catalog(name)
    return cli


def run_job(cli, job: jobs.Job) -> JobResult:
    argv = job.argv(CONFIG_DIR)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # a crash is a failed job; the run goes on
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return JobResult(job, code, seconds, out.getvalue(), err.getvalue())


def run_pass(
    cli, jobs_in_pass: List[jobs.Job], tracer: Optional[tracing.Tracer] = None
) -> PassResult:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = []
    for job in jobs_in_pass:
        if tracer is not None:
            tracer.job += 1
        results.append(run_job(cli, job))
    return PassResult(time.perf_counter() - wall0, time.process_time() - cpu0, results)


def run_passes(cli, workload: str, seed: int, seconds: float) -> List[PassResult]:
    """Whole passes until ``seconds`` have elapsed."""
    done: List[PassResult] = []
    start = time.perf_counter()
    for jobs_in_pass in jobs.passes(workload, seed):
        done.append(run_pass(cli, jobs_in_pass))
        if time.perf_counter() - start >= seconds:
            return done


def run_traced_pairs(
    cli, workload: str, seed: int, seconds: float, tracer: tracing.Tracer
) -> Tuple[List[PassResult], List[PassResult]]:
    """Each pass twice, untraced then traced, until ``seconds`` have elapsed.

    Running the two copies back to back keeps slow phases of a shared
    machine out of the traced/untraced ratio.
    """
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    for jobs_in_pass in jobs.passes(workload, seed):
        untraced.append(run_pass(cli, jobs_in_pass))
        tracer.install()
        try:
            traced.append(run_pass(cli, jobs_in_pass, tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def check_results(passes: List[PassResult], reference: Dict) -> List[str]:
    """One message per job whose output does not match the reference."""
    failures = []
    for p in passes:
        for r in p.results:
            ref = reference.get(r.job.key)
            if r.exit_code is None:
                problem = "raised: " + r.error.strip().splitlines()[-1]
            elif ref is None:
                problem = "no reference entry"
            else:
                problem = checks.compare(r.job.verb, r.exit_code, r.stdout, ref)
            if problem:
                failures.append(f"{r.job.key}: {problem}")
    return failures


def end_to_end(passes: List[PassResult], setup_times: List[float]) -> Dict[str, Dict]:
    walls = [p.wall_s for p in passes]
    job_times = [r.seconds for p in passes for r in p.results]
    points = sum(r.job.points for p in passes for r in p.results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s", len(walls)),
        "job_s.p50": (statistics.median(job_times), "s", len(job_times)),
        "points_per_s": (points / sum(walls), "1/s", len(walls)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    if len(job_times) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(job_times, n=10)[-1]
        metrics["job_s.p90"] = (p90, "s", len(job_times))
    return {
        name: {"value": value, "unit": unit, "samples": samples}
        for name, (value, unit, samples) in metrics.items()
    }


def per_layer(
    tracer: tracing.Tracer, traced: List[PassResult], untraced: List[PassResult]
) -> Dict[str, Dict]:
    """Per-layer metrics, per traced pass, plus the tracing overhead."""
    totals = tracer.layer_totals()
    n = len(traced)
    traced_wall = sum(p.wall_s for p in traced)

    def value(layer: str, quantity: str) -> float:
        row = totals.get(layer, {})
        calls = row.get("calls", 0)
        if quantity == "us_per_call":
            return row["s"] / calls * 1e6 if calls else 0.0
        if quantity == "useful_ratio":
            return row.get("distinct", 0) / calls if calls else 0.0
        if quantity == "share":
            return row.get("self_s", 0.0) / traced_wall
        return row.get(quantity, 0) / n

    metrics = {
        f"{layer}.{quantity}": (value(layer, quantity), LAYER_UNITS[quantity])
        for layer, quantities in LAYER_METRICS
        for quantity in quantities
    }
    metrics["cli.self_s"] = (value("cli.run", "self_s"), "s")
    overhead = statistics.median(t.wall_s / u.wall_s for t, u in zip(traced, untraced))
    metrics["trace_overhead"] = (overhead, "ratio")
    return {
        name: {"value": v, "unit": unit, "samples": n}
        for name, (v, unit) in metrics.items()
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, n_jobs: int, n_passes: int) -> Dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": n_jobs,
        "passes": n_passes,
    }


def print_summary(title: str, metrics: Dict[str, Dict]) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']:6s} (n={m['samples']})")


def run_workload(args) -> int:
    if not (SRC / "aegeom" / "cli.py").is_file():
        print(f"perfbench: no aegeom sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported before timing set-up)

    reference = checks.load_reference(REFERENCE)
    OUT.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = set_up(args.workload)
        setup_times.append(time.perf_counter() - start)

    record: Dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced = run_traced_pairs(
            cli, args.workload, args.seed, args.seconds, tracer
        )
        all_passes = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        record["absent"] = tracer.absent
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()) + "\n")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        title = f"{args.workload}: per-layer metrics, per traced pass"
    else:
        all_passes = run_passes(cli, args.workload, args.seed, args.seconds)
        metrics = end_to_end(all_passes, setup_times)
        title = f"{args.workload}: end-to-end metrics"

    failures = check_results(all_passes, reference)
    attempted = sum(len(p.results) for p in all_passes)
    fail_ratio = len(failures) / attempted
    print_summary(title, metrics)
    if not args.trace and "job_s.p90" not in metrics:
        print(f"  {'job_s.p90':48s} {'n/a':>14s} s      ({attempted} jobs < {P90_MIN_JOBS})")
    print(f"  {'fail_ratio':48s} {fail_ratio:14.6g} ratio  (n={attempted})")
    if args.trace and tracer.absent:
        print("  absent (not traced): " + ", ".join(tracer.absent))
    for line in failures[:10]:
        print("  MISMATCH " + line)

    record.update(
        environment=environment(args, attempted, len(all_passes)),
        metrics=metrics,
        fail_ratio={"value": fail_ratio, "unit": "ratio", "samples": attempted},
        failures=failures,
        pass_wall_s=[p.wall_s for p in all_passes],
        pass_cpu_s=[p.cpu_s for p in all_passes],
        setup_s=setup_times,
    )
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in reported_names(args.trace)
                },
            }
        )
    )
    return 0


def reported_names(trace: int) -> List[str]:
    """Metric names ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    status = 0
    for workload in jobs.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{workload}: exited with {child.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread unless the caller chooses otherwise, set before numpy
    # loads.  On a shared 2-core machine a second OpenBLAS thread made
    # algebra-table jobs slower (3.9 s against 3.2 s) and spread pass times
    # by 20-30% instead of a few percent.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
