"""Command line behavior: exit codes, formats, determinism, file output."""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aegeom
from aegeom import algebra
from aegeom.algebra import (
    ModelFiber,
    SubspaceQuery,
    alternating_definitions_coincide,
    subspace_dimension,
)
from aegeom.classify import classify
from aegeom.catalog import catalog
from aegeom.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    VERBS,
    build_parser,
    run,
)
from aegeom.errors import TheoremViolation
from aegeom.manifold import KINDS, SamplePlan, load_manifold_config

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
    report = json.loads(out)
    assert report["manifold"] == "random-norden-42"
    assert report["valid"]


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
    direct = classify(
        catalog("random-norden-42"),
        SamplePlan(seed=3, n_points=5),
    )
    assert json.loads(out) == direct.to_dict()


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


def test_identities_text_separates_every_key_from_its_value(capsys):
    code, out, _ = run_capture(capsys, ["identities", "--manifold", "flat-kahler"])
    assert code == EXIT_PASS
    lines = out.split("residuals:\n", 1)[1].splitlines()[:-1]
    assert "fundamental_form_nearly_match_on_vectors" in out
    for line in lines:
        assert re.fullmatch(r"  [a-z_]+ {2,}\d\.\d{3}e[+-]\d\d", line), line
    # every value has the same width, so equal lengths put them in one column
    assert len({len(line) for line in lines}) == 1


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
            fiber = ModelFiber.standard(kind, n)
            dim = subspace_dimension(fiber, SubspaceQuery.ALTERNATING)
            coincide = alternating_definitions_coincide(fiber, dim)
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
    # every module binding through which a subspace dimension is queried:
    # the table's batch, and the lone query that classify notes make
    calls = []
    batch = algebra.subspace_dimensions

    def counted_batch(cells):
        calls.append([(f.kind.label, f.n, q.value) for f, q in cells])
        return batch(cells)

    monkeypatch.setattr(algebra, "subspace_dimensions", counted_batch)
    classify_module = importlib.import_module("aegeom.classify")
    lone = classify_module.subspace_dimension

    def counted_lone(fiber, q):
        calls.append([(fiber.kind.label, fiber.n, q.value)])
        return lone(fiber, q)

    monkeypatch.setattr(classify_module, "subspace_dimension", counted_lone)
    # a second job in the same process recomputes: nothing is cached
    for _ in range(2):
        calls.clear()
        code, _, _ = run_capture(capsys, ["algebra-table", *FAST])
        assert code == EXIT_PASS
        assert len(calls) == 1
        assert len(calls[0]) == len(set(calls[0])) == 36


def test_algebra_table_does_each_piece_of_fiber_work_a_fixed_number_of_times(
    capsys, monkeypatch
):
    # one pass of each rank route over the table's 36 (kind, n, query)
    # cells, one exact pass per coincide check, and the base rows once for
    # each of the 12 fibers, which the table and the checks share; the row
    # builder is counted by the condition it builds
    names = ("numeric_nullities", "exact_nullities", "condition_rows")
    calls: dict = {}
    for name in names:
        original = getattr(algebra, name)

        def counted(*args, _name=name, _original=original):
            if _name == "condition_rows":
                key = (_name, args[1])
            else:
                key = (_name, len(args[0]))
            calls[key] = calls.get(key, 0) + 1
            return _original(*args)

        monkeypatch.setattr(algebra, name, counted)
    jobs = []
    for _ in range(2):
        calls.clear()
        code, _, _ = run_capture(capsys, ["algebra-table", *FAST])
        assert code == EXIT_PASS
        jobs.append(dict(calls))
    assert jobs[0]["numeric_nullities", 36] == jobs[0]["exact_nullities", 36] == 1
    # each check: the polarized system and its union with the antisymmetry rows
    assert jobs[0]["exact_nullities", 2] == 12
    for name in algebra.BASE:
        assert jobs[0]["condition_rows", name] == 12
    # each query's rows once per system: the table's, and the coincide
    # check's union
    assert jobs[0]["condition_rows", "nearly"] == 24
    assert jobs[0]["condition_rows", "codazzi"] == 12
    # and the counts above are every call made
    assert len(jobs[0]) == 7
    # a second job in the same process repeats every count: nothing is cached
    assert jobs[1] == jobs[0]


def test_the_tracer_sees_every_layer_of_an_algebra_table_job(capsys, monkeypatch):
    # the tracer wraps lone calls; the table's batched rank passes run
    # inside no wrapped name, so its subspace_dimension, exact_nullity
    # and null_space layers read zero on this job, and a classify note,
    # a lone query, is still seen
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    layers = (
        "algebra.subspace_dimension",
        "linalg.exact_nullity",
        "linalg.null_space",
        "algebra.alternating_definitions_coincide",
        "catalog.catalog",
    )
    counts = []
    for argv in (["algebra-table"], ["classify", "--manifold", "s6-nearly-kahler"]):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code, _, _ = run_capture(capsys, [*argv, *FAST])
        finally:
            tracer.uninstall()
        assert code == EXIT_PASS
        assert tracer.absent == []
        seen = [span[0] for span in tracer.spans]
        counts.append([seen.count(layer) for layer in layers])
    assert counts == [[0, 0, 0, 12, 13], [1, 0, 0, 0, 1]]


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
        run_capture(capsys, ["catalog", "--format", "yaml"])[0] == EXIT_USAGE
    )
    # a bad value is reported with the verb's usage line, as argparse
    # reports one that does not parse (--seed x)
    flat = ["--manifold", "flat-kahler"]
    bad_values = [
        (["validate", *flat, "--points", "0"], "--points must be at least 1"),
        (["classify", *flat, "--tol", "-1"], "--tol must be a positive finite"),
        (["identities", *flat, "--vectors", "0"], "--vectors must be at least 1"),
        (["classify", *flat, "--seed", "x"], "invalid int value: 'x'"),
    ] + [
        (argv + ["--seed", "-1"], "--seed must be non-negative")
        for argv in [["algebra-table"]]
        + [[verb, *flat] for verb in ("validate", "classify", "verify", "identities")]
    ]
    for argv, message in bad_values:
        code, out, err = run_capture(capsys, argv)
        assert code == EXIT_USAGE, argv
        assert message in err and out == "", argv
        assert err.startswith(f"usage: aegeom {argv[0]} "), argv


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
    for verb in ("classify", "verify", "identities"):
        code, out, err = run_capture(
            capsys, [verb, "--manifold", "flat-kahler", *FAST, f"--tol={tol}"]
        )
        assert code == EXIT_USAGE, verb
        assert out == "" and "--tol must be a positive finite number" in err
    code, _, _ = run_capture(capsys, ["algebra-table", f"--tol={tol}"])
    assert code == EXIT_USAGE
    # validate checks the axioms at their one tolerance and takes no --tol
    code, out, err = run_capture(
        capsys, ["validate", "--manifold", "flat-kahler", "--tol", "1e-3"]
    )
    assert code == EXIT_USAGE
    assert out == "" and "unrecognized arguments: --tol" in err


def test_each_verb_takes_exactly_its_options():
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    taken = {
        verb: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for verb, sub in subparsers.choices.items()
    }
    out = {"--format", "--output"}
    sample = {"--seed", "--points"}
    assert taken == {
        "catalog": out,
        "validate": {"--manifold"} | sample | out,
        "classify": {"--manifold", "--tol"} | sample | out,
        "verify": {"--manifold", "--tol"} | sample | out,
        "algebra-table": {"--tol"} | sample | out,
        "identities": {"--manifold", "--tol", "--vectors"} | sample | out,
    }


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
    "overflowing-width": (
        {"domain": {"lo": [-1e308, -1e308], "hi": [1e308, 1e308]}},
        "domain width hi - lo is not finite",
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
    for verb in ("validate", "classify", "verify", "identities"):
        code, out, err = run_capture(capsys, [verb, "--manifold", str(path), *FAST])
        assert code == EXIT_FAIL, verb
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "raw",
    [b"\xff", b"[" * 100000, b'{"dim": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "nested-100000-deep", "5000-digit-integer"],
)
def test_unreadable_config_bytes_exit_one(tmp_path, capsys, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    for verb in ("validate", "classify", "verify", "identities"):
        code, out, err = run_capture(capsys, [verb, "--manifold", str(path), *FAST])
        assert code == EXIT_FAIL, verb
        assert out == ""
        assert err.startswith(f"error: {path}: not valid JSON")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def test_unreadable_config_file_exits_one_naming_the_path(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "locked.json"
    path.write_text("{}")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    for verb in ("validate", "classify", "verify", "identities"):
        code, out, err = run_capture(capsys, [verb, "--manifold", str(path), *FAST])
        assert code == EXIT_FAIL, verb
        assert out == ""
        assert err == f"error: {path}: cannot be read (Permission denied)\n"


# numpy refuses these sizes before it allocates anything: 10**15 points of
# even two coordinates take 14.2 PiB
@pytest.mark.parametrize(
    "argv",
    [
        [verb, "--manifold", "flat-kahler", "--points", str(10**15)]
        for verb in ("validate", "classify", "verify", "identities")
    ]
    + [["identities", "--manifold", "flat-kahler", "--vectors", str(10**15)]],
    ids=["validate", "classify", "verify", "identities", "identities-vectors"],
)
def test_unallocatable_sample_exits_one_with_an_error_line(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1


# catalog names with a free tail, and config files of arbitrary bytes
NAME_TAILS = st.builds(
    str.__add__,
    st.sampled_from(
        [f"random-{kind.label}-" for kind in KINDS] + ["pullback-integrable-"]
    ),
    st.text(max_size=6) | st.text("0123456789", max_size=3),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(NAME_TAILS, st.binary(max_size=40)))
def test_bad_manifold_input_exits_zero_or_one_with_an_error_line(
    tmp_path_factory, target
):
    if isinstance(target, bytes):
        path = tmp_path_factory.getbasetemp() / "arbitrary.json"
        path.write_bytes(target)
        target = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["validate", "--manifold", target, "--points", "2"])
    assert code in (EXIT_PASS, EXIT_FAIL), err.getvalue()
    if code == EXIT_FAIL:
        assert err.getvalue().startswith("error:")


def test_help_exits_zero(capsys):
    assert run_capture(capsys, ["--help"])[0] == EXIT_PASS
    assert run_capture(capsys, ["classify", "--help"])[0] == EXIT_PASS


@pytest.mark.parametrize("columns", ["50", "150"])
def test_help_and_usage_errors_read_as_argparse_formats_them(
    capsys, monkeypatch, columns
):
    # the parser asks the terminal for its width once; its help and usage
    # text must equal what argparse's default formatter gives at that width
    monkeypatch.setenv("COLUMNS", columns)
    parsers = []

    def default_formatted(verb=None):
        parser = build_parser(verb)
        subparsers = parser._subparsers._group_actions[0].choices.values()
        for each in (parser, *subparsers):
            assert each.formatter_class is not argparse.HelpFormatter
            each.formatter_class = argparse.HelpFormatter
        parsers.append(parser)
        return parser

    argvs = [["--help"], *([verb, "--help"] for verb in VERBS), ["classify", "-x"]]
    ours = [run_capture(capsys, argv) for argv in argvs]
    monkeypatch.setattr("aegeom.cli.build_parser", default_formatted)
    assert [run_capture(capsys, argv) for argv in argvs] == ours
    assert len(parsers) == len(argvs)
    assert ours[-1][0] == EXIT_USAGE and ours[-1][2].startswith("usage: aegeom classify")
    # and a build, with its help for every verb, reads the terminal once
    queries = []
    true_size = shutil.get_terminal_size
    monkeypatch.setattr(
        shutil, "get_terminal_size", lambda *a: queries.append(a) or true_size(*a)
    )
    parser = build_parser()
    parser.format_help()
    for sub in parser._subparsers._group_actions[0].choices.values():
        sub.format_help()
    assert len(queries) == 1


FLAT = ["--manifold", "flat-kahler"]
# every kind of argv: none, an unknown verb, an option before the verb,
# help, argparse's own errors, the checks' usage errors, and real jobs
ARGVS = [
    [],
    ["bogus"],
    ["--format", "json", "classify"],
    ["--help"],
    ["-h"],
    *([verb, "--help"] for verb in VERBS),
    ["classify"],
    ["classify", "-x"],
    ["validate", *FLAT, "--tol", "1e-3"],
    ["classify", *FLAT, "--points", "0"],
    ["classify", *FLAT, "--seed", "-1"],
    ["catalog"],
    ["algebra-table", "--points", "3"],
    *(
        [verb, "--manifold", name, *FAST, "--format", fmt]
        for verb in ("validate", "classify", "verify", "identities")
        for name in (
            "flat-kahler",
            "s6-nearly-kahler",
            "random-norden-3",
            "pullback-integrable-norden",
        )
        for fmt in ("text", "json")
    ),
]


@pytest.mark.parametrize("columns", ["47", "150"])
def test_a_job_prints_what_the_full_parser_prints(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    ours = [run_capture(capsys, argv) for argv in ARGVS]
    # argparse names a missing verb by its dest when no metavar is set
    assert ours[0][2].endswith("the following arguments are required: command\n")
    full = build_parser
    monkeypatch.setattr("aegeom.cli.build_parser", lambda verb=None: full())
    assert [run_capture(capsys, argv) for argv in ARGVS] == ours


def test_a_job_builds_only_its_verbs_parser(capsys, monkeypatch):
    built = []
    true_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        true_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["identities", *FLAT, *FAST, *PROBES]
    assert run_capture(capsys, argv)[0] == EXIT_PASS
    assert built == ["aegeom", "aegeom identities"]
    built.clear()
    assert run_capture(capsys, ["--help"])[0] == EXIT_PASS
    assert len(built) == 1 + len(VERBS)


def test_a_verbs_own_parser_formats_as_in_the_full_parser():
    def subparsers(parser):
        return parser._subparsers._group_actions[0].choices

    full = subparsers(build_parser())
    for verb in VERBS:
        own = subparsers(build_parser(verb))
        assert list(own) == [verb]
        assert own[verb].format_help() == full[verb].format_help()
        assert own[verb].format_usage() == full[verb].format_usage()


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
    report = json.loads(target.read_text())
    assert report["manifold"] == "flat-kahler"


def test_unwritable_output_exits_one_and_names_the_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_capture(capsys, ["catalog", "--output", str(target)])
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


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


def test_module_entry_point_runs_in_a_subprocess(capsys):
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
    # run() reads sys.argv itself when the console entry passes nothing
    argv = ["classify", *FLAT, "--points", "3", "--format", "json"]
    child = subprocess.run(
        [sys.executable, "-m", "aegeom.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (child.returncode, child.stdout, child.stderr) == run_capture(capsys, argv)
    bad = subprocess.run(
        [sys.executable, "-m", "aegeom.cli"], capture_output=True, text=True, env=env
    )
    assert bad.returncode == 2
