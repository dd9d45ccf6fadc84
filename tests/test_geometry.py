import math

import numpy as np
import pytest

from plevylab.geometry import (Ball, Box, DomainError, FullSpace,
                               IntervalUnion, SlitBall, containment_margin,
                               from_spec, interval, slit_interval)


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


def test_containment_margin():
    assert containment_margin(interval(0, 1), interval(0.25, 0.75)) == 0.25
    assert containment_margin(interval(0, 1), interval(0.0, 0.5)) == 0.0
    assert containment_margin(Ball(1.0, 2), Ball(0.5, 2)) == 0.5


def test_complement_pieces():
    pieces = slit_interval().complement_pieces()
    assert pieces[0][0] == -math.inf and pieces[-1][1] == math.inf
    assert (0.0, 0.0) not in pieces


def test_spec_roundtrip():
    probes = np.array([[0.3], [-0.7]])
    for dom in (slit_interval(), interval(0.25, 0.75)):
        again = from_spec(dom.spec())
        assert (again.contains(probes) == dom.contains(probes)).all()
        assert again.volume() == dom.volume()
    ball = Ball(1.5, 2)
    again = from_spec(ball.spec())
    assert again.radius == ball.radius and again.dim == ball.dim


SPEC_DOMAINS = [
    IntervalUnion(((-math.inf, -1.0), (0.5, math.inf))),
    slit_interval(),
    Box((0, 0), (1, 2)),
    Ball(1.0, 2),
    Ball(0.5, 2, center=(0.4, 0.0)),
    Ball(0.75, 3, center=(-0.25, 0.5, 0.1)),
    SlitBall(1.0, 2),
    SlitBall(0.8, 3),
    FullSpace(2),
]


def _spec_probes(dim):
    # random points plus points on the slit hyperplane x_d = 0
    pts = rng(11).uniform(-1.5, 1.5, (400, dim))
    on_slit = pts[:50].copy()
    on_slit[:, -1] = 0.0
    return np.concatenate([pts, on_slit])


@pytest.mark.parametrize("dom", SPEC_DOMAINS,
                         ids=lambda d: ",".join(d.spec().values()))
def test_spec_roundtrip_every_kind(dom):
    again = from_spec(dom.spec())
    assert type(again) is type(dom) and again.dim == dom.dim
    assert again.spec() == dom.spec()
    probes = _spec_probes(dom.dim)
    assert (again.contains(probes) == dom.contains(probes)).all()
    try:
        vol = dom.volume()
    except DomainError:
        with pytest.raises(DomainError):
            again.volume()
    else:
        assert again.volume() == vol


def test_slit_ball_excludes_the_hyperplane():
    for dim in (2, 3):
        sb = SlitBall(1.0, dim)
        on = np.zeros((1, dim))
        on[0, 0] = 0.5
        near = on.copy()
        near[0, -1] = 1e-300
        assert not sb.contains(on)[0] and sb.contains(near)[0]
        assert sb.volume() == Ball(1.0, dim).volume()


def test_specs_that_key_mc_streams_are_pinned():
    # these strings are hashed into the Monte Carlo stream key
    assert Ball(1.0, 2).spec() == {"domain": "ball", "radius": "1.0",
                                   "d": "2"}
    assert Ball(1.0, 2, center=(0.0, 0.0)).spec() == Ball(1.0, 2).spec()
    # an off-centre ball keys its own stream
    assert Ball(0.5, 2, center=(0.4, 0.0)).spec() == {
        "domain": "ball", "radius": "0.5", "d": "2", "center": "0.4,0.0"}
    assert SlitBall(1.0, 2).spec() == {"domain": "slit_ball", "radius": "1.0",
                                       "d": "2", "slab": "0.0"}
    assert SlitBall(1.0, 3).spec() == {"domain": "slit_ball", "radius": "1.0",
                                       "d": "3", "slab": "0.0"}
    assert Box((0, 0), (1, 2)).spec() == {"domain": "box", "lo": "0.0,0.0",
                                          "hi": "1.0,2.0"}


@pytest.mark.parametrize("slab", ["0.1", "-0.5", "nan"])
def test_from_spec_rejects_a_slit_ball_slab(slab):
    spec = dict(SlitBall(1.0, 2).spec(), slab=slab)
    with pytest.raises(DomainError, match="slab"):
        from_spec(spec)
