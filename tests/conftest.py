import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def rel_inf(a, b):
    """Relative difference in the infinity norm (scale of the reference)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    den = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / den


def assert_same_bits(got, ref):
    """Same shape and the same bits, NaN signs aside."""
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref, equal_nan=True)
    # A NaN's sign is not compared: where NaNs of both signs meet, numpy's
    # scalar and short-array + keep one operand's NaN and np.sum the
    # other's, so no rewrite of an order can pin it.
    keep = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got)[keep], np.signbit(ref)[keep])
