import math

import numpy as np
import pytest

from plevylab.quadrature import (QuadratureError, adaptive, integrate,
                                 integrate_tail)


def test_smooth_integral():
    val, err = adaptive(np.sin, 0.0, np.pi)
    assert abs(val - 2.0) < 1e-12


def test_kink_split():
    val, _ = integrate(lambda r: np.minimum(1.0, r ** 2), 0.0, 2.0,
                       points=(1.0,))
    assert abs(val - 4.0 / 3.0) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.02])
def test_left_endpoint_power_singularity(alpha):
    val, _ = integrate(lambda r: np.power(r, alpha - 1.0), 0.0, 1.0,
                       alpha_left=alpha)
    assert abs(val - 1.0 / alpha) < 1e-11 / alpha


def test_right_endpoint_singularity():
    val, _ = integrate(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0,
                       alpha_right=0.5)
    assert abs(val - 2.0) < 1e-10


def test_double_singularity():
    val, _ = integrate(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0,
                       alpha_left=0.5, alpha_right=0.5)
    assert abs(val - np.pi) < 1e-10


def test_tail_transform():
    e = 0.02
    val, _ = integrate_tail(lambda r: np.power(r, e - 2.0), 1.0,
                            decay_exponent=2.0 - e)
    assert abs(val - 1.0 / (1.0 - e)) < 1e-12


def test_divergent_integral_raises():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda r: 1.0 / r, 0.0, 1.0, abs_tol=1e-10,
                  max_panels=500)
    # the failure carries the achieved error estimate
    assert info.value.achieved > 0


def test_nonpositive_alpha_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda r: 1.0 / r, 0.0, 1.0, alpha_left=0.0)


def _inv_cube(r):
    return r ** -3


def test_infinite_upper_limit_is_finite_part_plus_tail():
    val, err = integrate(_inv_cube, 0.5, math.inf, points=(0.7, 2.0),
                         decay_exponent=3.0)
    assert abs(val - 2.0) < 1e-12
    # the finite part stops at max(a, points, 1), the tail map takes over
    near, near_err = integrate(_inv_cube, 0.5, 2.0, points=(0.7,))
    tail, tail_err = integrate_tail(_inv_cube, 2.0, decay_exponent=3.0)
    assert val == near + tail
    assert err == near_err + tail_err


def test_infinite_upper_limit_without_decay_hint():
    val, _ = integrate(lambda r: np.exp(-r), 0.0, math.inf)
    assert abs(val - 1.0) < 1e-10
