"""Workload inputs: the job lists each workload runs, made from its seed.

A workload is an endless sequence of passes.  A pass is the workload's fixed
list of CLI jobs (the same verbs on the same targets every pass) with its
per-job sampling seeds and its order drawn from the workload seed, so two
runs with one seed get the same jobs and every pass costs about the same.

Per-job sampling seeds come from a pool of ``JOB_SEEDS`` values and config
variants from a pool of ``CONFIG_VARIANTS`` per kind, because every job's
output is checked against a stored reference (``reference.json``) that holds
one entry per distinct job.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

VERBS = ("validate", "classify", "verify", "identities")

# The nine catalog entries whose fields vary over the chart.
CURVED_ENTRIES = (
    "s6-nearly-kahler",
    "pullback-integrable-hermitian",
    "pullback-integrable-product-riemannian",
    "pullback-integrable-norden",
    "pullback-integrable-para-hermitian",
    "random-hermitian-13",
    "random-product-riemannian-7",
    "random-norden-42",
    "random-para-hermitian-5",
)

# Two-dimensional entries, where field evaluation costs almost nothing.
FLAT_IDENTITY_ENTRIES = (
    "flat-kahler",
    "flat-product-riemannian",
    "flat-anti-kahler",
    "flat-para-kahler",
    "random-hermitian-13",
    "random-product-riemannian-7",
    "random-norden-42",
    "random-para-hermitian-5",
)
FLAT_IDENTITY_POINTS = 10
FLAT_IDENTITY_ARGS = ("--points", str(FLAT_IDENTITY_POINTS), "--vectors", "200")

# Entries swept by the condition table of one algebra-table job.
ALGEBRA_TABLE_ENTRIES = 13

DEFAULT_POINTS = 50
JOB_SEEDS = 8
CONFIG_VARIANTS = 8
CONFIG_DIM = 4
CONFIG_HALF_BOX = 1.0

# (label, alpha, epsilon) of the four kinds, in the package's order.
KIND_SIGNS = (
    ("hermitian", -1, 1),
    ("product-riemannian", 1, 1),
    ("norden", -1, -1),
    ("para-hermitian", 1, -1),
)

WORKLOADS = ("curved-sweep", "flat-identities", "algebra-table", "config-sweep")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what it sweeps.

    ``target`` is a catalog name, a config name (resolved to a file path by
    ``argv``), or empty for algebra-table.  ``points`` is the number of
    sample points the job evaluates over all of its sweeps.
    """

    verb: str
    target: str
    seed: int
    extra: Tuple[str, ...] = ()
    points: int = DEFAULT_POINTS
    is_config: bool = False

    @property
    def key(self) -> str:
        """Reference key: identical for identical jobs, free of file paths."""
        return " ".join((self.verb, self.target, f"seed={self.seed}") + self.extra)

    def argv(self, config_dir: Path) -> List[str]:
        out = [self.verb]
        if self.target:
            target = self.target
            if self.is_config:
                target = str(config_path(config_dir, target))
            out += ["--manifold", target]
        return out + ["--seed", str(self.seed), "--format", "json", *self.extra]


def config_name(label: str, variant: int) -> str:
    return f"cfg-{label}-{variant}"


def config_path(config_dir: Path, name: str) -> Path:
    return config_dir / f"{name}.json"


def _fiber_matrices(alpha: int, epsilon: int) -> Tuple[List[List[int]], ...]:
    """Structure and inner product of ``ModelFiber.standard(kind, 2)``.

    Written out here so that generating inputs imports nothing from the
    program under test; a test compares the two.
    """
    n = CONFIG_DIM // 2
    d = CONFIG_DIM
    j0 = [[0] * d for _ in range(d)]
    inner = [[0] * d for _ in range(d)]
    if alpha == -1:
        for b in range(n):
            j0[2 * b][2 * b + 1] = -1
            j0[2 * b + 1][2 * b] = 1
        for i in range(d):
            inner[i][i] = 1 if epsilon == 1 else (1 if i % 2 == 0 else -1)
    else:
        for i in range(d):
            j0[i][i] = 1 if i < n else -1
        if epsilon == 1:
            for i in range(d):
                inner[i][i] = 1
        else:
            for i in range(n):
                inner[i][n + i] = 1
                inner[n + i][i] = 1
    return j0, inner


def _positive_factor(rng: random.Random) -> str:
    """Polynomial 1 + sum c_t m_t with sum |c_t| <= 0.8 and |m_t| <= 1.

    On the box |x_i| < 1 every monomial has modulus below one, so the factor
    stays above 0.2: the metric it scales is never degenerate.
    """
    n_terms = rng.randint(2, 8)
    weights = [rng.uniform(0.2, 1.0) for _ in range(n_terms)]
    budget = rng.uniform(0.3, 0.8) / sum(weights)
    text = "1"
    for w in weights:
        coeff = round(w * budget, 4)
        if coeff == 0.0:
            continue
        degree = rng.randint(1, 3)
        powers = [0] * CONFIG_DIM
        for _ in range(degree):
            powers[rng.randrange(CONFIG_DIM)] += 1
        factors = [
            f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}"
            for i, p in enumerate(powers)
            if p
        ]
        sign = "-" if rng.random() < 0.5 else "+"
        text += f" {sign} {coeff:.4f}*" + "*".join(factors)
    return text


def make_config(label: str, alpha: int, epsilon: int, variant: int) -> Dict:
    """A dim-4 config: standard fiber pair, metric scaled by a positive factor.

    J is constant, so the structure is integrable; the factor is not, so
    the structure is not of Kahler type.
    """
    rng = random.Random(f"config/{label}/{variant}")
    j0, inner = _fiber_matrices(alpha, epsilon)
    factor = _positive_factor(rng)

    def cell(c: int) -> str:
        return "0" if c == 0 else (f"({factor})" if c == 1 else f"-({factor})")

    return {
        "name": config_name(label, variant),
        "kind": {"alpha": alpha, "epsilon": epsilon},
        "dim": CONFIG_DIM,
        "domain": {
            "lo": [-CONFIG_HALF_BOX] * CONFIG_DIM,
            "hi": [CONFIG_HALF_BOX] * CONFIG_DIM,
        },
        "metric": [[cell(c) for c in row] for row in inner],
        "structure": [[str(c) for c in row] for row in j0],
    }


def write_configs(names: List[str], config_dir: Path) -> List[Path]:
    """Write the named configs as JSON files; returns their paths."""
    config_dir.mkdir(parents=True, exist_ok=True)
    by_name = {
        config_name(label, v): (label, a, e, v)
        for label, a, e in KIND_SIGNS
        for v in range(CONFIG_VARIANTS)
    }
    paths = []
    for name in names:
        path = config_path(config_dir, name)
        path.write_text(json.dumps(make_config(*by_name[name]), indent=1) + "\n")
        paths.append(path)
    return paths


def _slots(workload: str) -> List[List[List[Job]]]:
    """Alternatives per slot: each pass draws one group of jobs per slot."""
    seeds = range(JOB_SEEDS)
    if workload == "curved-sweep":
        return [
            [[Job(verb, entry, s)] for s in seeds]
            for entry in CURVED_ENTRIES
            for verb in VERBS
        ]
    if workload == "flat-identities":
        return [
            [
                [Job("identities", entry, s, FLAT_IDENTITY_ARGS, FLAT_IDENTITY_POINTS)]
                for s in seeds
            ]
            for entry in FLAT_IDENTITY_ENTRIES
        ]
    if workload == "algebra-table":
        points = ALGEBRA_TABLE_ENTRIES * DEFAULT_POINTS
        return [[[Job("algebra-table", "", s, points=points)] for s in seeds]]
    if workload == "config-sweep":
        return [
            [
                [Job(verb, config_name(label, v), v, is_config=True) for verb in VERBS]
                for v in range(CONFIG_VARIANTS)
            ]
            for label, _, _ in KIND_SIGNS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def passes(workload: str, seed: int) -> Iterator[List[Job]]:
    """The workload's passes for one seed, deterministic and unbounded."""
    slots = _slots(workload)
    rng = random.Random(f"{workload}/{seed}")
    while True:
        jobs = [job for slot in slots for job in rng.choice(slot)]
        rng.shuffle(jobs)
        yield jobs


def pool(workload: str) -> List[Job]:
    """Every distinct job the workload can draw, for building the reference."""
    return [job for slot in _slots(workload) for group in slot for job in group]
