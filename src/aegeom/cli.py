"""Command line front end.

Each verb is one row of ``VERBS``: its help text, its handler, and the
options it reads, each a row of ``OPTIONS``.  ``build_parser`` and ``run``
loop over those tables, and ``run`` writes a verb's output once, as
``report_json`` or as text.  ``--manifold`` names a catalog entry, or a
JSON config file when a file of that name exists.

Exit codes: 0 when every requested check passes, 1 when a mathematical
verdict fails or the input is bad, 2 for command line usage errors, and 3
when an internal cross-check breaks (formula routes disagreeing, a proved
implication failing, or the two dimension oracles splitting).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List, Optional

from .algebra import ModelFiber, alternating_definitions_coincide, dimension_table
from .catalog import catalog, standard_names
from .classify import classify, condition_table, render_condition_table
from .connection import identity_residuals, vector_triples
from .errors import GeometryError, InternalConsistencyError
from .manifold import (
    KINDS,
    ChartedManifold,
    SamplePlan,
    load_manifold_config,
    report_json,
    validate_structure,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


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


# option: its argparse keywords.  The order is the order of the options in
# --help.
OPTIONS: Dict[str, dict] = {
    "manifold": {"required": True, "help": "catalog entry name or config file path"},
    "seed": {"type": int, "default": 0, "help": "sampling seed"},
    "points": {"type": int, "default": 50, "help": "sample points"},
    "vectors": {"type": int, "default": 20, "help": "probe vector triples"},
    "tol": {"type": float, "default": 1e-8, "help": "verdict tolerance"},
}
SAMPLE = ("seed", "points", "tol")
ON_MANIFOLD = ("manifold",) + SAMPLE


def _check_sample_args(
    parser: argparse.ArgumentParser, args, options
) -> Optional[SamplePlan]:
    """Check the options the verb reads; its sample plan if it reads --points."""
    for name in ("points", "vectors"):
        if name in options and getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    if "tol" in options and not 0.0 < args.tol < math.inf:
        parser.error("--tol must be a positive finite number")
    if "points" not in options:
        return None
    return SamplePlan(seed=args.seed, n_points=args.points)


# A handler takes the arguments and the sample plan (None for a verb that
# does not read --points) and returns the JSON payload, a function rendering
# the text, and whether it passed.  It looks library functions up as module
# globals when it runs, so a wrapper patched into this module sees every call.


def _cmd_catalog(args, plan):
    rows = []
    for name in standard_names():
        m = catalog(name)
        rows.append({"name": name, "kind": m.kind.label, "dim": m.dim})

    def text():
        width = max(len(r["name"]) for r in rows) + 2
        lines = [f"{r['name']:{width}s}{r['kind']:22s}dim {r['dim']}" for r in rows]
        return "\n".join(lines) + "\n"

    return {"entries": rows}, text, True


def _cmd_validate(args, plan):
    report = validate_structure(_resolve_manifold(args.manifold), plan, args.tol)
    return report.to_dict(), report.render_text, report.valid


def _cmd_classify(args, plan):
    report = classify(_resolve_manifold(args.manifold), plan, args.tol)
    return report.to_dict(), report.render_text, True


def _cmd_verify(args, plan):
    m = _resolve_manifold(args.manifold)
    checks = classify(m, plan, args.tol).theorem_checks
    payload = {
        "manifold": m.name,
        "kind": m.kind.label,
        "sample": {"seed": plan.seed, "n_points": plan.n_points},
        "tol": args.tol,
        "checks": [c.to_dict() for c in checks],
    }

    def text():
        lines = [f"manifold: {m.name}", f"kind: {m.kind.label}"]
        for check in checks:
            lines.append(f"  {check.name}: {check.status} ({check.details})")
        return "\n".join(lines) + "\n"

    return payload, text, True


def _cmd_algebra_table(args, plan):
    dims = dimension_table()
    coincide: Dict[str, Dict[str, bool]] = {}
    for kind in KINDS:
        coincide[kind.label] = {
            str(n): alternating_definitions_coincide(ModelFiber.standard(kind, n))
            for n in dims[kind.label]
        }
    table = condition_table(plan, args.tol, dims)
    payload = {
        "dimensions": {
            label: {str(n): queries for n, queries in per_kind.items()}
            for label, per_kind in dims.items()
        },
        "alternating_definitions_coincide": coincide,
        "condition_table": table,
    }

    def text():
        lines = ["subspace dimensions:"]
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
        return "\n".join(lines) + "\n"

    passed = all(ok for per_n in coincide.values() for ok in per_n.values())
    return payload, text, passed


def _cmd_identities(args, plan):
    m = _resolve_manifold(args.manifold)
    triples = vector_triples(plan.seed, args.vectors, m.dim)
    worst = identity_residuals(m, plan.points(m.domain), triples)
    max_residual = max(worst.values())
    passed = max_residual < args.tol
    payload = {
        "manifold": m.name,
        "kind": m.kind.label,
        "sample": {
            "seed": plan.seed,
            "n_points": plan.n_points,
            "n_vector_triples": args.vectors,
        },
        "tol": args.tol,
        "residuals": worst,
        "max_residual": max_residual,
        "pass": passed,
    }

    def text():
        lines = [f"manifold: {m.name}", f"kind: {m.kind.label}", "residuals:"]
        for key in sorted(worst):
            lines.append(f"  {key:36s}{worst[key]:.3e}")
        lines.append(
            f"max residual {max_residual:.3e} "
            f"{'<' if passed else '>='} tol {args.tol:.1e}"
        )
        return "\n".join(lines) + "\n"

    return payload, text, passed


# verb: (help, handler, the options it reads besides --format and --output).
# The order is the order of the verbs in --help.
VERBS: Dict[str, tuple] = {
    "catalog": ("list built-in manifolds", _cmd_catalog, ()),
    "validate": ("check the structure axioms", _cmd_validate, ON_MANIFOLD),
    "classify": (
        "residuals and verdicts for the main conditions",
        _cmd_classify,
        ON_MANIFOLD,
    ),
    "verify": ("machine-check the applicable implications", _cmd_verify, ON_MANIFOLD),
    "algebra-table": (
        "pointwise subspace dimensions and class table",
        _cmd_algebra_table,
        SAMPLE,
    ),
    "identities": (
        "pointwise identities of the structure derivative",
        _cmd_identities,
        ON_MANIFOLD + ("vectors",),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aegeom",
        description=(
            "numerical checks for metric manifolds whose structure tensor "
            "squares to plus or minus the identity"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for verb, (help_text, _, options) in VERBS.items():
        sub = commands.add_parser(verb, help=help_text)
        for name, keywords in OPTIONS.items():
            if name in options:
                sub.add_argument(f"--{name}", **keywords)
        sub.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        sub.add_argument(
            "--output", default=None, help="write to file instead of stdout"
        )
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _, handler, options = VERBS[args.command]
        plan = _check_sample_args(parser, args, options)
        payload, text, passed = handler(args, plan)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(report_json(payload) if args.format == "json" else text(), args.output)
    return EXIT_PASS if passed else EXIT_FAIL


def console_entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_entry()
