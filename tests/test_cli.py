"""Command line behavior: exit codes, formats, determinism, file output."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aegeom
from aegeom.classify import ClassificationReport, classify
from aegeom.catalog import catalog
from aegeom.cli import EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE, run
from aegeom.errors import TheoremViolation
from aegeom.manifold import SamplePlan, ValidationReport, load_manifold_config

FAST = ["--points", "5", "--vectors", "3"]


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
    for verb in ("classify", "verify"):
        code, out, err = run_capture(capsys, [verb, "--manifold", str(path)])
        assert code == EXIT_FAIL, verb
        assert out == ""
        assert "internal consistency failure" not in err
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
        SamplePlan(seed=3, n_points=5, n_vector_triples=3),
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
        capsys, ["identities", "--manifold", "flat-para-kahler", *FAST]
    )
    assert code == EXIT_PASS
    # incompatible pair: the pairing swap identity is violated
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
        capsys, ["identities", "--manifold", str(path), *FAST]
    )
    assert code == EXIT_FAIL
    assert "pairing_swap" in out


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
            capsys, ["classify", "--manifold", "flat-kahler", "--vectors", "0"]
        )[0]
        == EXIT_USAGE
    )
    assert (
        run_capture(capsys, ["catalog", "--format", "yaml"])[0] == EXIT_USAGE
    )


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
