"""Command line front end.

Subcommands operate on either a named entry from the built-in catalog or a
JSON manifold description on disk; a positional argument naming an existing
file is treated as a config path, anything else as a catalog name.

Exit codes: 0 when every requested check passes, 1 when a mathematical
verdict fails or the input is bad, 2 for command line usage errors, and 3
when an internal cross-check breaks (formula routes disagreeing, a proved
implication failing, or the two dimension oracles splitting).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .algebra import (
    ModelFiber,
    alternating_definitions_coincide,
    dimension_table,
)
from .catalog import catalog, standard_names
from .classify import (
    classify,
    condition_table,
    render_condition_table,
    theorem_suite,
)
from .connection import identity_residuals
from .errors import GeometryError, InternalConsistencyError
from .manifold import (
    KINDS,
    ChartedManifold,
    SamplePlan,
    load_manifold_config,
    validate_structure,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _resolve_manifold(target: str) -> ChartedManifold:
    if os.path.isfile(target):
        return load_manifold_config(target)
    return catalog(target)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_sample_options(
    sub: argparse.ArgumentParser, manifold: bool = True
) -> None:
    if manifold:
        sub.add_argument(
            "--manifold",
            required=True,
            help="catalog entry name or config file path",
        )
    sub.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_argument("--points", type=int, default=50, help="sample points")
    sub.add_argument(
        "--vectors", type=int, default=20, help="probe vector triples"
    )
    sub.add_argument("--tol", type=float, default=1e-8, help="verdict tolerance")


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aegeom",
        description=(
            "numerical checks for metric manifolds whose structure tensor "
            "squares to plus or minus the identity"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("catalog", help="list built-in manifolds")
    _add_output_options(sub)

    sub = commands.add_parser("validate", help="check the structure axioms")
    _add_sample_options(sub)
    _add_output_options(sub)

    sub = commands.add_parser(
        "classify", help="residuals and verdicts for the main conditions"
    )
    _add_sample_options(sub)
    _add_output_options(sub)

    sub = commands.add_parser(
        "verify", help="machine-check the applicable implications"
    )
    _add_sample_options(sub)
    _add_output_options(sub)

    sub = commands.add_parser(
        "algebra-table", help="pointwise subspace dimensions and class table"
    )
    _add_sample_options(sub, manifold=False)
    _add_output_options(sub)

    sub = commands.add_parser(
        "identities", help="pointwise identities of the structure derivative"
    )
    _add_sample_options(sub)
    _add_output_options(sub)

    return parser


def _check_sample_args(parser: argparse.ArgumentParser, args) -> SamplePlan:
    if args.points < 1:
        parser.error("--points must be at least 1")
    if args.vectors < 1:
        parser.error("--vectors must be at least 1")
    if args.tol <= 0.0:
        parser.error("--tol must be positive")
    return SamplePlan(
        seed=args.seed, n_points=args.points, n_vector_triples=args.vectors
    )


def _cmd_catalog(args) -> int:
    rows = []
    for name in standard_names():
        m = catalog(name)
        rows.append({"name": name, "kind": m.kind.label, "dim": m.dim})
    if args.format == "json":
        _emit(_json_dumps({"entries": rows}), args.output)
    else:
        width = max(len(r["name"]) for r in rows) + 2
        lines = [
            f"{r['name']:{width}s}{r['kind']:22s}dim {r['dim']}" for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_PASS


def _cmd_validate(args, parser) -> int:
    plan = _check_sample_args(parser, args)
    m = _resolve_manifold(args.manifold)
    report = validate_structure(m, plan, args.tol)
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        _emit(report.render_text(), args.output)
    return EXIT_PASS if report.valid else EXIT_FAIL


def _cmd_classify(args, parser) -> int:
    plan = _check_sample_args(parser, args)
    m = _resolve_manifold(args.manifold)
    report = classify(m, plan, args.tol)
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        _emit(report.render_text(), args.output)
    return EXIT_PASS


def _cmd_verify(args, parser) -> int:
    plan = _check_sample_args(parser, args)
    m = _resolve_manifold(args.manifold)
    checks = theorem_suite(m, plan, args.tol)
    if args.format == "json":
        payload = {
            "manifold": m.name,
            "kind": m.kind.label,
            "sample": {"seed": plan.seed, "n_points": plan.n_points},
            "tol": args.tol,
            "checks": [c.to_dict() for c in checks],
        }
        _emit(_json_dumps(payload), args.output)
    else:
        lines = [f"manifold: {m.name}", f"kind: {m.kind.label}"]
        for check in checks:
            lines.append(f"  {check.name}: {check.status} ({check.details})")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_PASS


def _cmd_algebra_table(args, parser) -> int:
    plan = _check_sample_args(parser, args)
    dims = dimension_table()
    coincide: Dict[str, Dict[str, bool]] = {}
    for kind in KINDS:
        coincide[kind.label] = {
            str(n): alternating_definitions_coincide(ModelFiber.standard(kind, n))
            for n in (1, 2, 3)
        }
    table = condition_table(plan, args.tol, dims)
    if args.format == "json":
        dims_json = {
            label: {str(n): queries for n, queries in per_kind.items()}
            for label, per_kind in dims.items()
        }
        payload = {
            "dimensions": dims_json,
            "alternating_definitions_coincide": coincide,
            "condition_table": table,
        }
        _emit(_json_dumps(payload), args.output)
    else:
        lines: List[str] = ["subspace dimensions:"]
        for label, per_kind in dims.items():
            for n, queries in per_kind.items():
                parts = ", ".join(f"{q} {d}" for q, d in queries.items())
                lines.append(f"  {label:20s} n={n}: {parts}")
        lines.append("alternating definitions coincide:")
        for label, per_n in coincide.items():
            verdicts = ", ".join(
                f"n={n}: {'yes' if ok else 'no'}" for n, ok in per_n.items()
            )
            lines.append(f"  {label:20s} {verdicts}")
        lines.append(render_condition_table(table).rstrip("\n"))
        _emit("\n".join(lines) + "\n", args.output)
    all_coincide = all(ok for per_n in coincide.values() for ok in per_n.values())
    return EXIT_PASS if all_coincide else EXIT_FAIL


def _cmd_identities(args, parser) -> int:
    plan = _check_sample_args(parser, args)
    m = _resolve_manifold(args.manifold)
    worst = identity_residuals(m, plan.points(m.domain), plan.vector_triples(m.dim))
    max_residual = max(worst.values())
    passed = max_residual < args.tol
    if args.format == "json":
        payload = {
            "manifold": m.name,
            "kind": m.kind.label,
            "sample": {
                "seed": plan.seed,
                "n_points": plan.n_points,
                "n_vector_triples": plan.n_vector_triples,
            },
            "tol": args.tol,
            "residuals": worst,
            "max_residual": max_residual,
            "pass": passed,
        }
        _emit(_json_dumps(payload), args.output)
    else:
        lines = [f"manifold: {m.name}", f"kind: {m.kind.label}", "residuals:"]
        for key in sorted(worst):
            lines.append(f"  {key:36s}{worst[key]:.3e}")
        lines.append(
            f"max residual {max_residual:.3e} "
            f"{'<' if passed else '>='} tol {args.tol:.1e}"
        )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_PASS if passed else EXIT_FAIL


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command == "validate":
            return _cmd_validate(args, parser)
        if args.command == "classify":
            return _cmd_classify(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "algebra-table":
            return _cmd_algebra_table(args, parser)
        if args.command == "identities":
            return _cmd_identities(args, parser)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    raise AssertionError(f"unhandled command {args.command!r}")


def console_entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_entry()
