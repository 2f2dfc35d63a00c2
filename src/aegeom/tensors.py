"""Norms of dense tensor stacks."""

from __future__ import annotations

import numpy as np


def inf_norm(arr) -> float:
    """Largest absolute component (over every point of a stack); 0 if empty."""
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0
