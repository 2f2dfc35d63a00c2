"""Output check: compare one CLI job's exit code and JSON report to the reference.

Each report is split into an *exact* part (exit code, verdicts, check
statuses, the ``valid``/``pass`` flags, residual key sets, subspace
dimensions and the class table) that must match the reference exactly, and
an *approximate* part (every float the report carries) that must match it
within ``|out - ref| <= RTOL * |ref| + ATOL``.  The tolerance lets a batched
reduction that sums in another order stay correct: residuals that are
round-off (below ``ATOL``, a tenth of the CLI's default verdict tolerance)
are compared with zero, and every other value to six significant digits.

The reference stores only the approximate values at or above ``ATOL``; a
value it does not list must be below ``ATOL``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

RTOL = 1e-6
ATOL = 1e-9


def _check_list(checks: List[Dict]) -> List[List[str]]:
    return [[c["name"], c["status"]] for c in checks]


def extract(verb: str, payload: Dict) -> Tuple[Dict, Dict[str, float]]:
    """Split one JSON report into its exact and approximate parts."""
    approx: Dict[str, float] = {}
    if verb == "validate":
        exact = {
            "valid": payload["valid"],
            "failures": payload["failures"],
            "signs": [payload["alpha"], payload["epsilon"]],
            "n_points": payload["n_points"],
            "residual_keys": sorted(payload["residuals"]),
        }
        approx["min_abs_det"] = payload["min_abs_det"]
        residuals = payload["residuals"]
    elif verb == "classify":
        exact = {
            "kind": payload["kind"]["label"],
            "verdicts": payload["verdicts"],
            "theorem_checks": _check_list(payload["theorem_checks"]),
            "residual_keys": sorted(payload["residuals"]),
        }
        residuals = payload["residuals"]
    elif verb == "verify":
        exact = {"kind": payload["kind"], "checks": _check_list(payload["checks"])}
        residuals = {}
    elif verb == "identities":
        exact = {
            "kind": payload["kind"],
            "pass": payload["pass"],
            "n_vector_triples": payload["sample"]["n_vector_triples"],
            "residual_keys": sorted(payload["residuals"]),
        }
        approx["max_residual"] = payload["max_residual"]
        residuals = payload["residuals"]
    elif verb == "algebra-table":
        exact = {
            "dimensions": payload["dimensions"],
            "alternating_definitions_coincide": payload[
                "alternating_definitions_coincide"
            ],
            "condition_table": payload["condition_table"],
        }
        residuals = {}
    else:
        raise ValueError(f"no output check for verb {verb!r}")
    for key, value in residuals.items():
        approx["residuals." + key] = value
    return exact, approx


def reference_entry(verb: str, exit_code: int, stdout: str) -> Dict:
    """What the reference stores for one job."""
    exact, approx = extract(verb, json.loads(stdout))
    return {
        "exit": exit_code,
        "exact": exact,
        "approx": {k: v for k, v in approx.items() if abs(v) >= ATOL},
    }


def compare(verb: str, exit_code: int, stdout: str, ref: Dict) -> Optional[str]:
    """None when the output matches the reference, else the first mismatch."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    try:
        exact, approx = extract(verb, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if exact != ref["exact"]:
        for key in ref["exact"]:
            if exact.get(key) != ref["exact"][key]:
                return f"{key}: {exact.get(key)!r}, expected {ref['exact'][key]!r}"
        return "exact fields differ"
    for key in sorted(set(approx) | set(ref["approx"])):
        if key not in approx:
            return f"{key} missing"
        want = ref["approx"].get(key, 0.0)
        if not abs(approx[key] - want) <= RTOL * abs(want) + ATOL:
            return f"{key} = {approx[key]!r}, expected {want!r}"
    return None


def load_reference(path) -> Dict[str, Dict]:
    """Reference entries by job key, read from ``reference.json``."""
    with open(path, encoding="utf-8") as handle:
        return unpack_reference(json.load(handle))


def unpack_reference(data: Dict) -> Dict[str, Dict]:
    """Reference entries by job key, with shared exact parts expanded."""
    table = data["exact_table"]
    return {
        key: {"exit": e["exit"], "exact": table[e["exact"]], "approx": e["approx"]}
        for key, e in data["jobs"].items()
    }


def pack_reference(entries: Dict[str, Dict]) -> Dict:
    """Inverse of ``unpack_reference``: store each distinct exact part once."""
    table: List[Dict] = []
    index: Dict[str, int] = {}
    packed = {}
    for key, e in entries.items():
        text = json.dumps(e["exact"], sort_keys=True)
        if text not in index:
            index[text] = len(table)
            table.append(e["exact"])
        packed[key] = {"exit": e["exit"], "exact": index[text], "approx": e["approx"]}
    return {"exact_table": table, "jobs": packed}
