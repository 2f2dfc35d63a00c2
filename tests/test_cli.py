"""Command line behavior: exit codes, formats, determinism, file output."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aegeom
from aegeom import algebra
from aegeom.algebra import ModelFiber, alternating_definitions_coincide
from aegeom.classify import ClassificationReport, classify
from aegeom.catalog import catalog
from aegeom.cli import EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE, run
from aegeom.errors import TheoremViolation
from aegeom.manifold import KINDS, SamplePlan, ValidationReport, load_manifold_config

FAST = ["--points", "5"]
PROBES = ["--vectors", "3"]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_all_entries(capsys):
    code, out, _ = run_capture(capsys, ["catalog"])
    assert code == EXIT_PASS
    assert "s6-nearly-kahler" in out
    assert "flat-kahler" in out
    assert out.count("\n") == 13


def test_catalog_json_is_structured(capsys):
    code, out, _ = run_capture(capsys, ["catalog", "--format", "json"])
    assert code == EXIT_PASS
    data = json.loads(out)
    names = [row["name"] for row in data["entries"]]
    assert len(names) == 13
    assert "random-norden-42" in names


def test_validate_passes_on_catalog_entry(capsys):
    code, out, _ = run_capture(
        capsys, ["validate", "--manifold", "flat-kahler", *FAST]
    )
    assert code == EXIT_PASS
    assert "valid" in out


def test_validate_json_round_trips(capsys):
    code, out, _ = run_capture(
        capsys,
        ["validate", "--manifold", "random-norden-42", *FAST, "--format", "json"],
    )
    assert code == EXIT_PASS
    report = ValidationReport.from_json(out)
    assert report.manifold == "random-norden-42"
    assert report.valid


def test_validate_fails_on_incompatible_config(tmp_path, capsys):
    config = {
        "kind": {"alpha": -1, "epsilon": 1},
        "dim": 2,
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "metric": [["1", "0"], ["0", "2"]],
        "structure": [["0", "-1"], ["1", "0"]],
    }
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_capture(
        capsys, ["validate", "--manifold", str(path), *FAST]
    )
    assert code == EXIT_FAIL
    assert "metric_isometry" in out


# structures that fail an axiom at every point: a structure squaring to
# diag(1, 4) under a curved metric, and the three invalid flat structures
# of test_manifold, each with the first axiom it fails
INVALID_STRUCTURES = {
    "curved-wrong-square": (
        (-1, 1),
        [["1 + x2^2", "0"], ["0", "1"]],
        [["1", "0"], ["0", "2"]],
        "structure_squared",
    ),
    "wrong-square": (
        (1, -1),
        [["0", "1"], ["1", "0"]],
        [["0", "-1"], ["1", "0"]],
        "structure_squared",
    ),
    "identity-trace": (
        (1, 1),
        [["1", "0"], ["0", "1"]],
        [["1", "0"], ["0", "1"]],
        "structure_trace",
    ),
    "incompatible-metric": (
        (-1, 1),
        [["1", "0"], ["0", "2"]],
        [["0", "-1"], ["1", "0"]],
        "metric_isometry",
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_STRUCTURES))
def test_structure_failing_its_axioms_exits_one(tmp_path, capsys, name):
    (alpha, epsilon), metric, structure, axiom = INVALID_STRUCTURES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "kind": {"alpha": alpha, "epsilon": epsilon},
                "dim": 2,
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                "metric": metric,
                "structure": structure,
            }
        )
    )
    m = load_manifold_config(path)
    first = tuple(float(x) for x in SamplePlan().points(m.domain)[0])
    for verb in ("classify", "verify", "identities"):
        code, out, err = run_capture(capsys, [verb, "--manifold", str(path)])
        assert code == EXIT_FAIL, verb
        assert out == ""
        assert "internal consistency failure" not in err
        assert "Traceback" not in err
        assert err.startswith(f"error: {name}: {axiom} axiom fails by ")
        assert f"at {first}" in err
    code, out, _ = run_capture(capsys, ["validate", "--manifold", str(path)])
    assert code == EXIT_FAIL
    assert f"failed checks: {axiom}" in out and "verdict: invalid" in out


def test_classify_reports_verdicts(capsys):
    code, out, _ = run_capture(
        capsys, ["classify", "--manifold", "s6-nearly-kahler", *FAST]
    )
    assert code == EXIT_PASS
    assert "nearly" in out
    assert "holds" in out


def test_classify_json_parses_into_report(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "classify",
            "--manifold",
            "random-norden-42",
            "--seed",
            "3",
            *FAST,
            "--format",
            "json",
        ],
    )
    assert code == EXIT_PASS
    parsed = ClassificationReport.from_json(out)
    direct = classify(
        catalog("random-norden-42"),
        SamplePlan(seed=3, n_points=5),
    )
    assert parsed == direct


def test_verify_lists_checks(capsys):
    code, out, _ = run_capture(
        capsys,
        ["verify", "--manifold", "flat-anti-kahler", *FAST, "--format", "json"],
    )
    assert code == EXIT_PASS
    data = json.loads(out)
    names = {c["name"] for c in data["checks"]}
    assert "codazzi_forces_kahler_type" in names
    assert all(c["status"] in ("passed", "hypothesis not met") for c in data["checks"])


def test_identities_pass_and_fail(tmp_path, capsys):
    code, _, _ = run_capture(
        capsys, ["identities", "--manifold", "flat-para-kahler", *FAST, *PROBES]
    )
    assert code == EXIT_PASS
    # incompatible pair: g(J., J.) = g fails, so the identities, which
    # assume the axioms, are not computed
    config = {
        "kind": {"alpha": -1, "epsilon": 1},
        "dim": 2,
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "metric": [["1", "0"], ["0", "2"]],
        "structure": [["0", "-1"], ["1", "0"]],
    }
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(config))
    code, out, err = run_capture(
        capsys, ["identities", "--manifold", str(path), *FAST, *PROBES]
    )
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("error: lopsided: metric_isometry axiom fails")


def test_algebra_table_text_and_json(capsys):
    code, out, _ = run_capture(capsys, ["algebra-table", *FAST])
    assert code == EXIT_PASS
    assert "subspace dimensions" in out
    assert "alternating definitions coincide" in out
    code, out, _ = run_capture(capsys, ["algebra-table", *FAST, "--format", "json"])
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["dimensions"]["norden"]["3"]["full"] == 54
    assert data["condition_table"]["cells"]["hermitian"]["plus_sign"][
        "subspace_dimension"
    ] == 2
    assert all(
        ok
        for per_n in data["alternating_definitions_coincide"].values()
        for ok in per_n.values()
    )


def test_algebra_table_fails_when_the_alternating_renderings_split(
    capsys, monkeypatch
):
    # the polarized rendering with its pairs made symmetric, (1, -1) in
    # place of (1, 1): it cuts out the symmetric part with zero diagonal,
    # which is zero, so it splits from the alternating one exactly where
    # that is not zero, at n=3 for alpha*epsilon = -1
    polarized = algebra._polarized_rows

    def symmetric_rendering(d):
        lengths, cols, coeffs = polarized(d)
        coeffs = coeffs.copy()
        coeffs[np.cumsum(lengths)[lengths == 2] - 1] = -1.0
        return lengths, cols, coeffs

    monkeypatch.setattr(algebra, "_polarized_rows", symmetric_rendering)
    split = {("hermitian", 3), ("para-hermitian", 3)}
    for kind in KINDS:
        for n in (1, 2, 3):
            coincide = alternating_definitions_coincide(ModelFiber.standard(kind, n))
            assert coincide == ((kind.label, n) not in split), (kind.label, n)
    code, out, _ = run_capture(capsys, ["algebra-table", *FAST])
    assert code == EXIT_FAIL
    for kind in KINDS:
        verdict = "no" if (kind.label, 3) in split else "yes"
        assert f"  {kind.label:20s} n=1: yes, n=2: yes, n=3: {verdict}\n" in out
    code, out, _ = run_capture(capsys, ["algebra-table", *FAST, "--format", "json"])
    assert code == EXIT_FAIL
    coincide = json.loads(out)["alternating_definitions_coincide"]
    failed = {
        (label, int(n))
        for label, per_n in coincide.items()
        for n, ok in per_n.items()
        if ok is False
    }
    assert failed == split


def test_algebra_table_queries_each_subspace_dimension_once_per_job(
    capsys, monkeypatch
):
    # every module binding through which a subspace dimension is queried
    modules = [importlib.import_module(f"aegeom.{m}") for m in ("algebra", "classify")]
    calls = []
    for module in modules:
        query = module.subspace_dimension

        def counted(fiber, q, *args, _query=query, **kwargs):
            calls.append((fiber.kind.label, fiber.n, q.value))
            return _query(fiber, q, *args, **kwargs)

        monkeypatch.setattr(module, "subspace_dimension", counted)
    # a second job in the same process recomputes: nothing is cached
    for _ in range(2):
        calls.clear()
        code, _, _ = run_capture(capsys, ["algebra-table", *FAST])
        assert code == EXIT_PASS
        assert len(calls) == len(set(calls)) == 36


def test_unknown_catalog_name_exits_one(capsys):
    code, _, err = run_capture(
        capsys, ["validate", "--manifold", "no-such-entry", *FAST]
    )
    assert code == EXIT_FAIL
    assert "error:" in err
    assert "no catalog entry" in err


def test_broken_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_capture(capsys, ["validate", "--manifold", str(path), *FAST])
    assert code == EXIT_FAIL
    assert "not valid JSON" in err


def test_usage_errors_exit_two(capsys):
    assert run_capture(capsys, [])[0] == EXIT_USAGE
    assert run_capture(capsys, ["no-such-command"])[0] == EXIT_USAGE
    assert run_capture(capsys, ["validate"])[0] == EXIT_USAGE  # missing --manifold
    assert (
        run_capture(capsys, ["validate", "--manifold", "flat-kahler", "--points", "0"])[0]
        == EXIT_USAGE
    )
    assert (
        run_capture(
            capsys, ["validate", "--manifold", "flat-kahler", "--tol", "-1"]
        )[0]
        == EXIT_USAGE
    )
    assert (
        run_capture(
            capsys, ["identities", "--manifold", "flat-kahler", "--vectors", "0"]
        )[0]
        == EXIT_USAGE
    )
    assert (
        run_capture(capsys, ["catalog", "--format", "yaml"])[0] == EXIT_USAGE
    )


def test_only_identities_takes_vectors(capsys):
    flat = ["--manifold", "flat-kahler"]
    others = [["catalog"], ["algebra-table"]] + [
        [verb, *flat] for verb in ("validate", "classify", "verify")
    ]
    for argv in others:
        code, out, err = run_capture(capsys, [*argv, *PROBES])
        assert code == EXIT_USAGE, argv
        assert out == "" and "unrecognized arguments: --vectors 3" in err
    assert run_capture(capsys, ["identities", *flat, *FAST, *PROBES])[0] == EXIT_PASS


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_tol_must_be_positive_and_finite(capsys, tol):
    for verb in ("validate", "classify", "verify", "identities"):
        code, out, err = run_capture(
            capsys, [verb, "--manifold", "flat-kahler", *FAST, f"--tol={tol}"]
        )
        assert code == EXIT_USAGE, verb
        assert out == "" and "--tol must be a positive finite number" in err
    code, _, _ = run_capture(capsys, ["algebra-table", f"--tol={tol}"])
    assert code == EXIT_USAGE


BAD_CONFIGS = {
    "odd-dim": ({"dim": 3}, "'dim' must be even and at least 2, got 3"),
    "zero-dim": ({"dim": 0}, "'dim' must be even and at least 2, got 0"),
    "infinite-lo": (
        {"domain": {"lo": [float("-inf"), -1.0], "hi": [1.0, 1.0]}},
        "domain.lo must be a list of finite numbers",
    ),
    "nan-hi": (
        {"domain": {"lo": [-1.0, -1.0], "hi": [1.0, float("nan")]}},
        "domain.hi must be a list of finite numbers",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_dimensions_and_bounds_exit_one(tmp_path, capsys, name):
    change, message = BAD_CONFIGS[name]
    config = {
        "kind": {"alpha": -1, "epsilon": 1},
        "dim": 2,
        "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "metric": [["1", "0"], ["0", "1"]],
        "structure": [["0", "-1"], ["1", "0"]],
        **change,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    for verb in ("validate", "classify"):
        code, out, err = run_capture(capsys, [verb, "--manifold", str(path), *FAST])
        assert code == EXIT_FAIL, verb
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


def test_help_exits_zero(capsys):
    assert run_capture(capsys, ["--help"])[0] == EXIT_PASS
    assert run_capture(capsys, ["classify", "--help"])[0] == EXIT_PASS


def test_internal_error_exits_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise TheoremViolation("synthetic break")

    monkeypatch.setattr("aegeom.cli.classify", boom)
    code, _, err = run_capture(
        capsys, ["classify", "--manifold", "flat-kahler", *FAST]
    )
    assert code == EXIT_INTERNAL
    assert "internal consistency failure" in err


def test_verbs_look_the_traced_names_up_when_they_run(tmp_path, capsys, monkeypatch):
    # the benchmark's tracer patches these names into aegeom.cli after
    # import; a verb that bound them at import time would bypass it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    traced = {attr for module, attr, _, _ in tracing.WRAPPED if module == "aegeom.cli"}
    config = tmp_path / "flat.json"
    config.write_text(
        json.dumps(
            {
                "kind": {"alpha": -1, "epsilon": 1},
                "dim": 2,
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                "metric": [["1", "0"], ["0", "1"]],
                "structure": [["0", "-1"], ["1", "0"]],
            }
        )
    )
    flat = ["--manifold", "flat-kahler", *FAST]
    verbs = {
        "catalog": [["catalog"]],
        "load_manifold_config": [["validate", "--manifold", str(config), *FAST]],
        "validate_structure": [["validate", *flat]],
        "identity_residuals": [["identities", *flat]],
        "alternating_definitions_coincide": [["algebra-table", *FAST]],
        "classify": [["classify", *flat], ["verify", *flat]],
    }
    assert traced - {"run"} <= set(verbs)
    cli = importlib.import_module("aegeom.cli")
    for name, argvs in verbs.items():
        for argv in argvs:
            calls = []
            original = getattr(cli, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(cli, name, counted)
                assert run_capture(capsys, argv)[0] == EXIT_PASS, argv
            assert calls, (name, argv)


def test_output_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_capture(
        capsys,
        [
            "classify",
            "--manifold",
            "flat-kahler",
            *FAST,
            "--format",
            "json",
            "--output",
            str(target),
        ],
    )
    assert code == EXIT_PASS
    assert out == ""
    report = ClassificationReport.from_json(target.read_text())
    assert report.manifold == "flat-kahler"


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    argv = [
        "classify",
        "--manifold",
        "random-para-hermitian-5",
        *FAST,
        "--format",
        "json",
    ]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second
    assert first.encode() == second.encode()


def test_module_entry_point_runs_in_a_subprocess():
    # the child finds the package where this process imported it from,
    # installed or not
    env = dict(os.environ)
    package_root = str(Path(aegeom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "aegeom.cli", "catalog"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "flat-kahler" in proc.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "aegeom.cli"], capture_output=True, text=True, env=env
    )
    assert bad.returncode == 2
