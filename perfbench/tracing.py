"""Traced mode: spans around the calls into each layer of ``aegeom``.

The tracer replaces public functions with timing wrappers in the module
namespace where their *callers* look them up: ``from .x import f`` binds
``f`` in the importing module at import time, so wrapping ``aegeom.x.f``
alone would miss calls made through the importer's binding.  Modules are
fetched with ``importlib.import_module`` because ``aegeom.classify`` as a
package attribute is the re-exported function, not the module.

Spans stay in memory as ``(layer, parent, job, start, end, extra)`` and are
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children always
lie inside their parent.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


def _fiber_key(args, kwargs) -> Tuple:
    fiber = args[0] if args else kwargs["fiber"]
    query = args[1] if len(args) > 1 else kwargs["query"]
    return (
        fiber.kind.alpha,
        fiber.kind.epsilon,
        fiber.n,
        fiber.j0.tobytes(),
        fiber.inner.tobytes(),
        query.value,
    )


def _cells(args, kwargs) -> int:
    system = args[0] if args else kwargs["system"]
    return len(system.rows) * system.n_unknowns


# (module, attribute, layer, extra): where each layer's public function is
# looked up by its callers.  ``extra`` computes a value recorded with the span.
WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("aegeom.cli", "run", "cli.run", None),
    ("aegeom.cli", "catalog", "catalog.catalog", None),
    ("aegeom.classify", "catalog", "catalog.catalog", None),
    ("aegeom.cli", "load_manifold_config", "manifold.load_manifold_config", None),
    ("aegeom.cli", "validate_structure", "manifold.validate_structure", None),
    ("aegeom.connection", "eval_with_derivatives", "manifold.eval_with_derivatives", None),
    ("aegeom.cli", "identity_residuals", "connection.identity_residuals", None),
    ("aegeom.classify", "sample_residuals", "classify.sample_residuals", None),
    ("aegeom.classify", "subspace_dimension", "algebra.subspace_dimension", _fiber_key),
    ("aegeom.algebra", "subspace_dimension", "algebra.subspace_dimension", _fiber_key),
    (
        "aegeom.cli",
        "alternating_definitions_coincide",
        "algebra.alternating_definitions_coincide",
        None,
    ),
    ("aegeom.algebra", "null_space", "linalg.null_space", _cells),
    ("aegeom.algebra", "exact_nullity", "linalg.exact_nullity", None),
)


@dataclass
class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    spans: List[Optional[Tuple]] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    job: int = -1
    _stack: List[int] = field(default_factory=list)
    _saved: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, fn: Callable, layer: str, extra: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                value = extra(args, kwargs) if extra is not None else None
                spans[index] = (layer, parent, self.job, start, end, value)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.absent = []
        for module_name, attr, layer, extra in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, extra))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds, self seconds, and extras."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, parent, _, start, end, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0}
        )
        keys_per_job = defaultdict(set)
        for i, (layer, _, job, start, end, value) in enumerate(self.spans):
            row = totals[layer]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if isinstance(value, int):
                row["cells"] += value
            elif value is not None:
                keys_per_job[(layer, job)].add(value)
        for (layer, _), keys in keys_per_job.items():
            totals[layer]["distinct"] = totals[layer].get("distinct", 0) + len(keys)
        return dict(totals)

    def dump(self) -> Dict:
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return {
            "columns": ["layer", "parent", "job", "start_s", "end_s"],
            "spans": [
                [layer, parent, job, round(start - t0, 7), round(end - t0, 7)]
                for layer, parent, job, start, end, _ in self.spans
            ],
            "absent": list(self.absent),
        }
