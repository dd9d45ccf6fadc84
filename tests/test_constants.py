import math

import pytest

from plevylab.constants import (compute_kdp, kdp_closed, kdp_mc, kdp_mean,
                                kdp_variant_ratio, sphere_area,
                                unit_ball_volume)


def test_sphere_areas():
    assert sphere_area(1) == 2.0
    assert abs(sphere_area(2) - 2 * math.pi) < 1e-14
    assert abs(sphere_area(3) - 4 * math.pi) < 1e-13


@pytest.mark.parametrize("route", [sphere_area, unit_ball_volume,
                                   lambda d: compute_kdp(d, 2.0),
                                   lambda d: kdp_closed(d, 2.0)])
def test_dimension_beyond_the_gamma_range_is_named(route):
    with pytest.raises(OverflowError, match="d=400"):
        route(400)


def test_ball_volumes():
    assert abs(unit_ball_volume(1) - 2.0) < 1e-14
    assert abs(unit_ball_volume(2) - math.pi) < 1e-14


@pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.0])
def test_dimension_one_is_unity(p):
    assert kdp_mean(1, p) == 1.0
    assert abs(kdp_closed(1, p) - 1.0) < 1e-15


def test_spot_values():
    # mean of w_1^2 over the sphere is 1/d; circle average of |cos| is 2/pi
    assert abs(kdp_mean(3, 2.0) - 1.0 / 3.0) < 1e-12
    assert abs(kdp_mean(2, 1.0) - 2.0 / math.pi) < 1e-12
    assert abs(kdp_closed(2, 2.0) - 0.5) < 1e-14
    assert abs(kdp_closed(2, 1.0) - 2.0 / math.pi) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_mean_matches_closed_form(d, p):
    assert abs(kdp_mean(d, p) - kdp_closed(d, p)) <= 1e-10


def test_mc_route_consistent():
    val, se = kdp_mc(4, 2.0, n=1_000_000, seed=2)
    assert abs(val - 0.25) <= 4.0 * se


def test_rotation_invariance():
    # three different unit vectors agree pairwise within 4 joint stderr
    results = [kdp_mc(3, 2.0, n=400_000, seed=5, direction=e)
               for e in ((1, 0, 0), (0, 0, 1), (1, 1, 1))]
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            vi, si = results[i]
            vj, sj = results[j]
            assert abs(vi - vj) <= 4.0 * math.hypot(si, sj)


def test_monotone_in_dimension():
    for p in (1.0, 2.0, 3.0):
        vals = [kdp_mean(d, p) for d in range(2, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_variant_ratio_disagrees():
    # the circulating Gamma((d-1)/2) ratio does not match the sphere mean
    k = compute_kdp(2, 2.0)
    assert k.discrepancy <= 1e-10
    assert abs(kdp_variant_ratio(2, 2.0) - k.value_mean) > 0.3
    assert 0.0 < k.value_mean <= 1.0
