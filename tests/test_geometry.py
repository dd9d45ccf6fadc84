import math

import numpy as np
import pytest

from plevylab.geometry import (_ROW_BLOCK, Ball, Box, DomainError, FullSpace,
                               IntervalUnion, SlitBall, _row_sq_norms,
                               containment_margin, from_spec, interval,
                               slit_interval)


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


@pytest.mark.parametrize("ball", [Ball(1e-200, 2), Ball(1e200, 1),
                                  Ball(1e-162, 3), SlitBall(1e-200, 2),
                                  SlitBall(1e200, 3)])
def test_ball_membership_refuses_a_radius_whose_square_leaves_the_floats(
        ball):
    # a square of 0 accepted no point, and the sampler looped for ever
    with pytest.raises(DomainError, match="squared radius of %s" % (
            type(ball).__name__)):
        ball.contains(np.zeros((3, ball.dim)))
    with pytest.raises(DomainError):
        ball.sample_uniform(np.random.default_rng(0), 10)


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


# ---------------------------------------------------------------------------
# rejection sampler parity with the allocate-per-round loop it replaced


def _oracle_contains(dom, pts):
    # membership as the loop below first formed it: whole-array temporaries
    # and reductions over the short axis
    if isinstance(dom, IntervalUnion):
        x = pts[:, 0]
        keep = np.zeros(x.shape, dtype=bool)
        for a, b in dom.intervals:
            keep |= (x > a) & (x < b)
        return keep
    if isinstance(dom, Box):
        return np.all((pts > np.asarray(dom.lo)) & (pts < np.asarray(dom.hi)),
                      axis=1)
    if isinstance(dom, SlitBall):
        d2 = np.sum(pts * pts, axis=1)
        return (d2 < dom.radius ** 2) & (np.abs(pts[:, -1]) > 0.0)
    d2 = np.sum((pts - np.asarray(dom.center)) ** 2, axis=1)
    return d2 < dom.radius ** 2


def _oracle_sample(dom, rng, size):
    lo, hi = dom.bounding_box()
    dim = dom.dim
    out = np.empty((size, dim))
    got = 0
    proposed = 0
    while got < size:
        batch = max(size - got, 1)
        cand = rng.random((batch, dim)) * (hi - lo) + lo
        proposed += batch
        keep = _oracle_contains(dom, cand)
        k = int(keep.sum())
        if k:
            take = min(k, size - got)
            out[got:got + take] = cand[keep][:take]
            got += take
    return out, proposed


@pytest.mark.parametrize("dom", [
    IntervalUnion(((-1.0, -0.25), (0.5, 2.0))),
    Box((0.0, -1.0), (1.0, 2.0)),
    Ball(0.5, 2, center=(0.4, -0.1)),
    Ball(0.75, 3, center=(-0.25, 0.5, 0.1)),
    SlitBall(1.0, 2),
    SlitBall(0.8, 3),
], ids=lambda d: ",".join(d.spec().values()))
# sizes around the rejection sampler's block length, whole rounds in the
# reference
@pytest.mark.parametrize("size", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK,
                                  _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5,
                                  300_000])
def test_sampler_matches_reference_loop(dom, size):
    gen, oracle_gen = rng(3), rng(3)
    pts, proposed = dom.sample_uniform_with_stats(gen, size)
    want, want_proposed = _oracle_sample(dom, oracle_gen, size)
    assert pts.shape == (size, dom.dim)
    assert np.array_equal(pts, want)
    assert proposed == want_proposed
    # both leave the stream at the same place for the draws that follow
    assert gen.random() == oracle_gen.random()
    probes = _spec_probes(dom.dim)
    assert np.array_equal(dom.contains(probes), _oracle_contains(dom, probes))


@pytest.mark.parametrize("dom", [
    Box((-1e308, 0.0), (1e308, 1.0)),
    IntervalUnion(((-1e308, 1e308),)),
    Ball(1e308, 2),
], ids=["box", "interval", "ball"])
def test_sampling_a_box_wider_than_the_float_range_fails(dom):
    # each candidate would be inf or NaN, so no round would ever end
    with pytest.raises(DomainError, match="not finite") as err:
        dom.sample_uniform(rng(0), 5)
    assert type(dom).__name__ in str(err.value)


@pytest.mark.parametrize("make", [lambda r: Ball(r, 2),
                                  lambda r: SlitBall(r, 3)])
def test_overflowing_ball_volume_fails_naming_the_ball(make):
    dom = make(1e308)
    with pytest.raises(DomainError, match="volume of .*Ball.*1e\\+308"):
        dom.volume()
    assert make(1e100).volume() > 0.0


# ---------------------------------------------------------------------------
# constructor validation


@pytest.mark.parametrize("make", [
    lambda: Box((math.nan, 0.0), (1.0, 1.0)),
    lambda: Box((0.0, 0.0), (1.0, math.nan)),
    lambda: Box((math.inf,), (math.inf,)),
    lambda: SlitBall(1.0, 2.5),
    lambda: SlitBall(1.0, 1),
    lambda: SlitBall(1.0, True),
    lambda: Ball(1.0, 0),
    lambda: Ball(1.0, 2.0),
    lambda: Ball(1.0, 2, center=(math.nan, 0.0)),
    lambda: Ball(1.0, 2, center=(0.0, math.inf)),
    lambda: FullSpace(-1),
    lambda: FullSpace(0),
    lambda: FullSpace(1.5),
], ids=["box-nan-lo", "box-nan-hi", "box-inf-inf", "slit-ball-dim-2.5",
        "slit-ball-dim-1", "slit-ball-dim-bool", "ball-dim-0",
        "ball-dim-float", "ball-nan-center", "ball-inf-center",
        "full-space-dim-neg", "full-space-dim-0", "full-space-dim-float"])
def test_invalid_domains_are_rejected(make):
    with pytest.raises(DomainError):
        make()


def test_unbounded_box_is_legal_but_not_sampled():
    # half-spaces and slabs are boxes with infinite corners
    half = Box((-math.inf, 0.0), (math.inf, math.inf))
    assert half.dim == 2 and half.volume() == math.inf
    assert half.contains([[-1e300, 1e-300]])[0]
    assert not half.contains([[0.0, 0.0]])[0]
    with pytest.raises(DomainError, match="not finite"):
        half.sample_uniform(rng(0), 10)


def test_integer_dims_of_any_integer_type():
    assert Ball(1.0, np.int64(3)).dim == 3
    assert type(SlitBall(1.0, np.int32(2)).dim) is int
    assert FullSpace(np.int64(2)).spec() == FullSpace(2).spec()


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5])
def test_row_sq_norms_match_numpy_sum_bit_for_bit(d, n):
    gen = np.random.default_rng(d * 31 + n % 89)
    x = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-8, 8, (n, d))
    center = gen.standard_normal(d)
    assert np.array_equal(_row_sq_norms(x), np.sum(x * x, axis=1))
    y = x - center
    assert np.array_equal(_row_sq_norms(x, tuple(center)),
                          np.sum(y * y, axis=1))


# one point, a row of three coordinates, and a 3-D stack of points
WRONG_SHAPES = [0.5, [[0.1, 0.2, 0.3]], np.zeros((3, 2, 1))]


@pytest.mark.parametrize("x", WRONG_SHAPES, ids=["scalar", "3-col", "3-d"])
def test_contains_rejects_points_of_the_wrong_shape(x):
    for dom in (Ball(1.0, 2), Box((0.0, 0.0), (1.0, 1.0)), SlitBall(1.0, 2)):
        with pytest.raises(DomainError, match=r"shape \(n, 2\)"):
            dom.contains(x)
