"""The largest-component norm over dense tensor stacks."""

import numpy as np

from aegeom.tensors import inf_norm


def test_inf_norm_is_the_largest_absolute_component():
    assert inf_norm(np.array([[1.0, -4.0], [2.0, 0.5]])) == 4.0
