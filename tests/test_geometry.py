import math

import numpy as np
import pytest

from plevylab.geometry import (Ball, Box, DomainError, FullSpace,
                               IntervalUnion, SlitBall, containment_margin,
                               interval, interval_difference, slit_interval)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def test_slit_interval_basics():
    s = slit_interval()
    assert s.volume() == 2.0
    assert not s.contains([[0.0]])[0]
    assert s.contains([[-0.5]])[0] and s.contains([[0.5]])[0]


def test_ball_volume():
    assert abs(Ball(1.0, 2).volume() - math.pi) < 1e-14
    assert abs(Ball(2.0, 3).volume() - 4.0 / 3.0 * math.pi * 8) < 1e-12


def test_interval_union_validation():
    with pytest.raises(DomainError):
        IntervalUnion(((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(DomainError):
        IntervalUnion(((1.0, 1.0),))


@pytest.mark.parametrize("make", [
    lambda r: Ball(r, 2), lambda r: SlitBall(r, 2), lambda r: SlitBall(r, 3)])
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_ball_radius_must_be_positive_and_finite(make, radius):
    with pytest.raises(DomainError):
        make(radius)


def test_unbounded_interval_union_is_legal_but_not_sampled():
    # unbounded unions serve as partner sets; only sampling needs a box
    half_line = IntervalUnion(((0.0, math.inf),))
    assert half_line.contains([[1e300]])[0]
    with pytest.raises(DomainError, match="not finite"):
        half_line.sample_uniform(rng(0), 10)


def test_shrink_and_grow():
    iv = interval(0.0, 1.0)
    assert iv.inner_shrink(0.1).intervals == ((0.1, 0.9),)
    grown = Ball(1.0, 2).outer_grow(0.2)
    assert grown.radius == 1.2
    # growing a slit interval fills the slit
    assert slit_interval().outer_grow(0.2).intervals == ((-1.2, 1.2),)
    with pytest.raises(DomainError):
        interval(0.0, 1.0).inner_shrink(0.5)


def test_shrink_grow_bracket_volume():
    dom = interval(0.0, 1.0)
    assert dom.inner_shrink(0.1).volume() < dom.volume() \
        < dom.outer_grow(0.1).volume()


def test_shrink_containment():
    dom = slit_interval()
    small = dom.inner_shrink(0.05)
    pts = small.sample_uniform(rng(3), 2000)
    assert small.contains(pts).all()
    assert dom.contains(pts).all()


def test_sampler_matches_membership():
    for dom in (slit_interval(), Ball(1.0, 2), Box((0, 0), (1, 2)),
                SlitBall(1.0, 2)):
        pts = dom.sample_uniform(rng(1), 5000)
        assert dom.contains(pts).all()


def test_acceptance_ratio_matches_volume():
    dom = Ball(1.0, 2)
    pts, proposed = dom.sample_uniform_with_stats(rng(7), 1_000_000)
    ratio = pts.shape[0] / proposed
    expect = dom.volume() / 4.0  # bounding box area 4
    se = math.sqrt(expect * (1 - expect) / proposed)
    assert abs(ratio - expect) <= 4.0 * se


def test_full_space_rejects_sampling():
    fs = FullSpace(1)
    assert fs.contains([[42.0]])[0]
    with pytest.raises(DomainError):
        fs.volume()
    with pytest.raises(DomainError):
        fs.sample_uniform(rng(0), 10)


def test_slit_ball_shrink_is_slab():
    sb = SlitBall(1.0, 2)
    small = sb.inner_shrink(0.1)
    assert small.slab == 0.1 and small.radius == 0.9
    assert not small.contains([[0.5, 0.05]])[0]
    assert small.contains([[0.5, 0.2]])[0]
    # slab volume: closed form cross-check in d=2
    quad = 2 * (0.1 * math.sqrt(0.9 ** 2 - 0.1 ** 2)
                + 0.81 * math.asin(0.1 / 0.9))
    assert abs((Ball(0.9, 2).volume() - small.volume()) - quad) < 1e-12


def test_containment_margin():
    assert containment_margin(interval(0, 1), interval(0.25, 0.75)) == 0.25
    assert containment_margin(interval(0, 1), interval(0.0, 0.5)) == 0.0
    assert containment_margin(Ball(1.0, 2), Ball(0.5, 2)) == 0.5


def test_interval_difference():
    big = interval(-2.0, 2.0)
    small = interval(0.0, 1.0)
    assert interval_difference(big, small).intervals == \
        ((-2.0, 0.0), (1.0, 2.0))


def test_complement_pieces():
    pieces = slit_interval().complement_pieces()
    assert pieces[0][0] == -math.inf and pieces[-1][1] == math.inf
    assert (0.0, 0.0) not in pieces


def test_spec_roundtrip():
    from plevylab.geometry import from_spec
    probes = np.array([[0.3], [-0.7]])
    for dom in (slit_interval(), interval(0.25, 0.75)):
        again = from_spec(dom.spec())
        assert (again.contains(probes) == dom.contains(probes)).all()
        assert again.volume() == dom.volume()
    ball = Ball(1.5, 2)
    again = from_spec(ball.spec())
    assert again.radius == ball.radius and again.dim == ball.dim
