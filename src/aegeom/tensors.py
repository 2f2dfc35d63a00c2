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

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def dims(self) -> Tuple[int, ...]:
        return self.data.shape

    def inf_norm(self) -> float:
        return inf_norm(self.data)

    def contract(self, upper_slot: int, lower_slot: int) -> "TensorValue":
        return contract(self, upper_slot, lower_slot)

    def __mul__(self, c):
        if isinstance(c, (int, float, np.integer, np.floating)):
            return TensorValue(self.data * float(c), self.variance)
        return NotImplemented

    __rmul__ = __mul__

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


def contract(t: TensorValue, upper_slot: int, lower_slot: int) -> TensorValue:
    """Sum one upper slot against one lower slot, reducing rank by two."""
    r = t.rank
    for slot in (upper_slot, lower_slot):
        if not 0 <= slot < r:
            raise SlotMismatch(f"slot {slot} out of range for rank {r}")
    if upper_slot == lower_slot:
        raise SlotMismatch("cannot contract a slot with itself")
    if t.variance[upper_slot] != UPPER:
        raise SlotMismatch(f"slot {upper_slot} is not upper")
    if t.variance[lower_slot] != LOWER:
        raise SlotMismatch(f"slot {lower_slot} is not lower")
    if t.data.shape[upper_slot] != t.data.shape[lower_slot]:
        raise SlotMismatch("contracted slots have different extents")
    summed = np.trace(t.data, axis1=upper_slot, axis2=lower_slot)
    variance = tuple(
        v for i, v in enumerate(t.variance) if i not in (upper_slot, lower_slot)
    )
    return TensorValue(np.asarray(summed, dtype=float), variance)
