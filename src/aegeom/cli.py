"""Command line front end.

Each verb is one row of ``VERBS``: its help text, its handler, and the
options it reads, each a row of ``OPTIONS``.  ``build_parser`` loops over
those tables; ``run`` has it build only the subparser of the verb that
argv starts with, and writes the verb's output once, as ``report_json`` or
as text.  ``--manifold`` names a catalog entry, or a JSON config file when
a file of that name exists.

Exit codes: 0 when every requested check passes, 1 when a mathematical
verdict fails, the input is bad, the sample cannot be allocated or the
output file cannot be written, 2 for command line usage errors, and 3 when
an internal cross-check breaks (formula routes disagreeing, a proved
implication failing, or the two dimension oracles splitting).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys
from typing import Dict, List, Optional

from .algebra import (
    SubspaceQuery,
    alternating_definitions_coincide,
    dimension_table,
    standard_fibers,
)
from .catalog import catalog, standard_names
from .classify import VERDICT_TOL, classify, condition_table, render_condition_table
from .connection import identity_residuals, vector_triples
from .errors import GeometryError, InternalConsistencyError
from .manifold import (
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


# option: its argparse keywords.  The order is the order of the options in
# --help.
OPTIONS: Dict[str, dict] = {
    "manifold": {"required": True, "help": "catalog entry name or config file path"},
    "seed": {"type": int, "default": 0, "help": "sampling seed"},
    "points": {"type": int, "default": 50, "help": "sample points"},
    "vectors": {"type": int, "default": 20, "help": "probe vector triples"},
    "tol": {"type": float, "default": VERDICT_TOL, "help": "verdict tolerance"},
}
SAMPLE = ("seed", "points", "tol")
ON_MANIFOLD = ("manifold",) + SAMPLE


def _check_sample_args(args, options) -> Optional[SamplePlan]:
    """Check the options the verb reads; its sample plan if it reads --points.

    A bad value exits through ``args.usage_error``, the error method of the
    verb's own parser, so the message carries the verb's usage line.
    """
    for name in ("points", "vectors"):
        if name in options and getattr(args, name) < 1:
            args.usage_error(f"--{name} must be at least 1")
    if "seed" in options and args.seed < 0:
        args.usage_error("--seed must be non-negative")
    if "tol" in options and not 0.0 < args.tol < math.inf:
        args.usage_error("--tol must be a positive finite number")
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
    report = validate_structure(_resolve_manifold(args.manifold), plan)
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
    fibers = standard_fibers()
    dims = dimension_table(fibers)
    # each fiber's check reads the alternating dimension on which both rank
    # routes agreed in the table above
    alternating = SubspaceQuery.ALTERNATING.value
    checked = alternating_definitions_coincide(
        fibers, [dims[f.kind.label][f.n][alternating] for f in fibers]
    )
    coincide: Dict[str, Dict[str, bool]] = {}
    for fiber, ok in zip(fibers, checked):
        coincide.setdefault(fiber.kind.label, {})[str(fiber.n)] = ok
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

    passed = all(checked)
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
        width = max(map(len, worst)) + 2
        for key in sorted(worst):
            lines.append(f"  {key:{width}s}{worst[key]:.3e}")
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
    "validate": (
        "check the structure axioms",
        _cmd_validate,
        ("manifold", "seed", "points"),
    ),
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


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``aegeom`` parser, with every verb's subparser or only ``verb``'s.

    A parser that names ``verb`` reads only an argv whose first item is that
    verb.  Its subparsers' metavar spells every verb, as argparse spells the
    full set of choices, so its usage line reads as the full parser's.  The
    full parser sets no metavar: its missing-verb error names ``command``.
    """
    # argparse's own width, read from the terminal once for every formatter
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="aegeom",
        description=(
            "numerical checks for metric manifolds whose structure tensor "
            "squares to plus or minus the identity"
        ),
        formatter_class=formatter,
    )
    metavar = None if verb is None else "{" + ",".join(VERBS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for each, (help_text, _, options) in VERBS.items():
        if verb not in (None, each):
            continue
        sub = commands.add_parser(each, help=help_text, formatter_class=formatter)
        sub.set_defaults(usage_error=sub.error)
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    try:
        args = parser.parse_args(argv)
        _, handler, options = VERBS[args.command]
        plan = _check_sample_args(args, options)
        payload, text, passed = handler(args, plan)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    # MemoryError: a sample or probe count too large to allocate
    except (GeometryError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    rendered = report_json(payload) if args.format == "json" else text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_FAIL
    else:
        sys.stdout.write(rendered)
    return EXIT_PASS if passed else EXIT_FAIL


def console_entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_entry()
