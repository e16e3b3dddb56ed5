import math

import pytest

from entropygames.kernels import power_enclosure


def test_known_radius_running_product():
    flat = [2.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 2.0]
    lo, hi, iters, v = power_enclosure(flat, 3, 1e-10, 10000)
    expected = (3 + math.sqrt(17)) / 2
    assert lo <= expected <= hi
    assert hi - lo <= 1e-9
    assert all(x > 0 for x in v)
    assert iters < 100


def test_identity_converges_immediately():
    lo, hi, iters, _ = power_enclosure([1.0, 0.0, 0.0, 1.0], 2, 1e-12, 100)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_zero_matrix():
    lo, hi, _, _ = power_enclosure([0.0, 0.0, 0.0, 0.0], 2, 1e-12, 100)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.0, abs=1e-12)


def test_iteration_cap_reported():
    # an upper-triangular matrix keeps a persistent ratio gap, so a zero
    # tolerance with a tiny cap forces the iteration to run out
    flat = [2.0, 1.0, 0.0, 1.0]
    lo, hi, iters, _ = power_enclosure(flat, 2, 0.0, 3)
    assert iters == 3
    assert lo <= 2.0 <= hi
