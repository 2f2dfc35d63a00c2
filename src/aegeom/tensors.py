"""Dense tensor values at a single point, with explicit slot variance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import SlotMismatch

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class TensorValue:
    """Components of a tensor at a point.

    ``data`` is a dense real array in row-major index order and ``variance``
    labels each slot ``"upper"`` or ``"lower"``.  All slot extents must agree
    (components live over a single tangent space).  Instances are immutable:
    the backing array is made read-only on construction.
    """

    data: np.ndarray
    variance: Tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "variance", tuple(self.variance))
        if arr.ndim != len(self.variance):
            raise SlotMismatch(
                f"{arr.ndim} array axes but {len(self.variance)} variance labels"
            )
        for v in self.variance:
            if v not in (UPPER, LOWER):
                raise SlotMismatch(f"variance label must be upper/lower, got {v!r}")
        extents = set(arr.shape)
        if len(extents) > 1:
            raise SlotMismatch(f"slot extents differ: {arr.shape}")

    def inf_norm(self) -> float:
        return inf_norm(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorValue):
            return NotImplemented
        return self.variance == other.variance and np.array_equal(
            self.data, other.data
        )


def inf_norm(arr) -> float:
    """Largest absolute component (over every point of a stack); 0 if empty."""
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0
