"""Pointwise tensor container: slot bookkeeping, immutability and norm."""

import numpy as np
import pytest

from aegeom.errors import SlotMismatch
from aegeom.tensors import LOWER, UPPER, TensorValue


def test_variance_label_validation():
    with pytest.raises(SlotMismatch):
        TensorValue(np.eye(2), (UPPER, "sideways"))
    with pytest.raises(SlotMismatch):
        TensorValue(np.eye(2), (UPPER,))
    with pytest.raises(SlotMismatch):
        TensorValue(np.zeros((2, 3)), (UPPER, LOWER))


def test_inf_norm_is_the_largest_absolute_component():
    t = TensorValue(np.array([[1.0, -4.0], [2.0, 0.5]]), (LOWER, LOWER))
    assert t.inf_norm() == 4.0


def test_backing_array_is_read_only():
    t = TensorValue(np.eye(3), (UPPER, LOWER))
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0


def test_equality_requires_matching_variance():
    a = TensorValue(np.eye(2), (UPPER, LOWER))
    b = TensorValue(np.eye(2), (LOWER, LOWER))
    c = TensorValue(np.eye(2), (UPPER, LOWER))
    assert a != b
    assert a == c
