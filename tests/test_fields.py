import math

import numpy as np
import pytest

from plevylab.constants import unit_ball_volume
from plevylab.fields import (LIPSCHITZ, BallIndicator, Field, FieldError,
                             Gaussian, InterfaceGradientError, Linear,
                             SignJump, SmoothBump, Tent, _dot, bv_seminorm,
                             from_spec, grad_lp_norm, sobolev_norm_p)
from plevylab.geometry import _ROW_BLOCK, Ball, interval, slit_interval


def test_linear_eval_and_grad():
    u = Linear((2.0, -1.0), 0.5)
    pts = np.array([[1.0, 1.0], [0.0, 3.0]])
    assert np.allclose(u.eval(pts), [1.5, -2.5])
    assert np.allclose(u.grad(pts), [[2.0, -1.0], [2.0, -1.0]])


def test_gaussian_grad_at_origin():
    g = Gaussian(2)
    assert np.allclose(g.grad([[0.0, 0.0]]), 0.0)
    assert abs(float(g.laplacian([[0.0, 0.0]])[0]) + 4.0) < 1e-14


def _einsum_dot(a, b):
    return np.einsum("ij,ij->i", a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_and_bump_values_keep_their_bits(dim):
    # the in-place evaluations against the plain expressions, bit for bit,
    # on points inside, on and outside the bump's support
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, (2000, dim))
    pts[:3] = [[0.0] * dim, [1.0] + [0.0] * (dim - 1), [0.9] * dim]
    r2 = _einsum_dot(pts, pts)
    assert np.array_equal(Gaussian(dim).eval(pts), np.exp(-r2))
    bump = SmoothBump(dim, 1.0)
    s = r2 / bump.radius ** 2
    want = np.zeros(len(pts))
    inside = s < 1.0
    want[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    assert inside.any() and not inside.all()
    assert np.array_equal(bump.eval(pts), want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_laplacian_is_finite_at_every_finite_point(dim):
    g = Gaussian(dim)
    # ordinary points keep the bits of (4 r^2 - 2d) exp(-r^2)
    pts = np.random.default_rng(4).uniform(-4.0, 4.0, (500, dim))
    r2 = _einsum_dot(pts, pts)
    assert np.array_equal(g.laplacian(pts),
                          (4.0 * r2 - 2.0 * dim) * np.exp(-r2))
    # past exp(-r^2)'s underflow 4 r^2 may overflow: 0, not inf * 0
    far = np.array([30.0, 6.7e153, 1e155, 1e300, np.finfo(float).max])
    with np.errstate(over="raise", invalid="raise"):
        lap = g.laplacian(far[:, None] * np.ones((1, dim)))
    assert np.array_equal(lap, np.zeros(far.size))
    assert np.isnan(g.laplacian([[np.nan] * dim])[0])


def test_sign_jump_values():
    sj = SignJump(1)
    assert float(sj.eval([[-0.5]])[0]) == -0.5
    assert float(sj.eval([[0.75]])[0]) == 0.5
    assert np.allclose(sj.grad([[0.3]]), 0.0)
    with pytest.raises(InterfaceGradientError):
        sj.grad([[0.0]])


def test_bump_is_smooth_and_compact():
    b = SmoothBump(1, 0.5)
    assert float(b.eval([[0.0]])[0]) == 1.0
    assert float(b.eval([[0.6]])[0]) == 0.0
    # gradient consistent with finite differences inside the support
    x = 0.2
    h = 1e-6
    fd = (float(b.eval([[x + h]])[0]) - float(b.eval([[x - h]])[0])) / (2 * h)
    assert abs(float(b.grad([[x]])[0, 0]) - fd) < 1e-6


# and with a normal square: at 1e-300 the bump read 0.0 at its centre, at
# 1e-160 its grad and laplacian read -inf
@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1e-300,
                                    1e-160, 1e200])
def test_bump_radius_must_be_positive(radius):
    with pytest.raises(FieldError):
        SmoothBump(1, radius)


def test_grad_lp_norm_linear():
    assert abs(grad_lp_norm(Linear((1.0,)), interval(0, 1), 2.0) - 1.0) \
        < 1e-14


def test_grad_lp_norm_tent():
    assert abs(grad_lp_norm(Tent(1), interval(-1, 1), 1.0) - 2.0) < 1e-10


def test_grad_lp_norm_gaussian_ball_polar_oracle():
    # closed-form polar integral of |2r exp(-r^2)|^2 over the radius-3 disk
    val = grad_lp_norm(Gaussian(2), Ball(3.0, 2), 2.0)
    oracle = math.pi * (1.0 - 19.0 * math.exp(-18.0))
    assert abs(val - oracle) < 1e-8


def test_grad_lp_norm_monotone_in_domain():
    g = Gaussian(1)
    small = grad_lp_norm(g, interval(-0.5, 0.5), 2.0)
    large = grad_lp_norm(g, interval(-1.0, 1.0), 2.0)
    assert small <= large


def test_lipschitz_bound():
    # |grad u| <= 1 for the tent, so the p-energy is at most the volume
    dom = interval(-1, 1)
    for p in (1.0, 2.0, 3.0):
        assert grad_lp_norm(Tent(1), dom, p) <= dom.volume() + 1e-12


def test_grad_lp_norm_piecewise():
    # no interface inside the slit domain: the field is W^{1,p} with zero
    # gradient there; inside (-1,1) the jump forbids a gradient norm
    assert grad_lp_norm(SignJump(1), slit_interval(), 2.0) == 0.0
    with pytest.raises(FieldError):
        grad_lp_norm(SignJump(1), interval(-1, 1), 2.0)


def test_bv_seminorm_sign_jump():
    assert bv_seminorm(SignJump(1), interval(-1, 1)) == 1.0
    assert bv_seminorm(SignJump(1), slit_interval()) == 0.0


def test_bv_seminorm_ball_indicator_perimeter():
    val = bv_seminorm(BallIndicator(2, 0.5), Ball(1.0, 2))
    assert abs(val - math.pi) < 1e-14
    # interface outside the domain contributes nothing
    assert bv_seminorm(BallIndicator(2, 1.5), Ball(1.0, 2)) == 0.0


def test_bv_seminorm_homogeneous():
    sj = SignJump(1)
    for c in (-3.0, 0.5, 2.0):
        assert bv_seminorm(sj.scaled(c), interval(-1, 1)) == abs(c)


def test_bv_rejects_smooth_fields():
    with pytest.raises(FieldError):
        bv_seminorm(Gaussian(1), interval(-1, 1))


def test_sobolev_norm_tent():
    # int |u|^p = 2/(p+1), int |u'|^p = 2 on the real line
    for p in (1.0, 2.0):
        assert abs(sobolev_norm_p(Tent(1), p) - (2.0 / (p + 1) + 2.0)) \
            < 1e-9


def test_shift_keeps_gradient():
    u = Linear((1.0,)).shifted(5.0)
    assert float(u.eval([[0.25]])[0]) == 5.25
    assert abs(grad_lp_norm(u, interval(0, 1), 2.0) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# the offset-difference contract: u(x+h) - u(x) without cancellation


OFFSET_FIELDS = [SmoothBump(1, 0.5), SmoothBump(2, 0.7), SmoothBump(3, 1.0),
                 Tent(2), Tent(3), SmoothBump(2, 0.7).scaled(-2.5),
                 SmoothBump(3, 1.0).shifted(4.0), Tent(2).scaled(3.0),
                 Tent(3).shifted(-1.0)]


def _field_id(field):
    return ",".join("%s=%s" % kv for kv in field.spec().items())


def _support(field):
    # a shifted field states no support radius; its base's sets the scale
    return getattr(field, "base", field).support_radius


def _directions(rng, n, dim):
    g = rng.normal(size=(n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _edge_points(field, rng, n=400):
    """Points just inside, on and outside the support edge, paired with
    offsets across it and along it at scales from 1e-12 to 1."""
    dim, big_r = field.dim, _support(field)
    w = _directions(rng, n, dim)
    rel = rng.choice([1.0 - 1e-3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.2], n)
    scale = rng.choice([1e-12, 1e-6, 1e-3, 1e-2, 0.5], n)
    sign = rng.choice([-1.0, 1.0], n)[:, None]
    h = scale[:, None] * big_r * np.where(rng.random((n, 1)) < 0.5,
                                          sign * w, _directions(rng, n, dim))
    return big_r * rel[:, None] * w, h


@pytest.mark.parametrize("field", OFFSET_FIELDS, ids=_field_id)
def test_offset_diff_finite_across_the_support_edge(field):
    x, h = _edge_points(field, np.random.default_rng(1))
    assert np.all(np.isfinite(field.offset_diff(x, h)))


@pytest.mark.parametrize("field", OFFSET_FIELDS, ids=_field_id)
def test_offset_diff_tiny_offsets_follow_the_gradient(field):
    # at |h| = 1e-12 subtraction keeps ~4 digits; the contract keeps all
    rng = np.random.default_rng(2)
    n, dim = 500, field.dim
    x = _directions(rng, n, dim) * _support(field) \
        * rng.uniform(0.1, 0.9, (n, 1))
    h = 1e-12 * _directions(rng, n, dim)
    g = field.grad(x)
    linear = np.sum(g * h, axis=1)
    scale = np.linalg.norm(g, axis=1) * 1e-12
    assert np.all(np.abs(field.offset_diff(x, h) - linear) <= 1e-6 * scale)


@pytest.mark.parametrize("field", OFFSET_FIELDS, ids=_field_id)
def test_offset_diff_large_offsets_match_subtraction(field):
    rng = np.random.default_rng(3)
    n, dim = 500, field.dim
    inner = _directions(rng, n, dim) * _support(field) \
        * rng.uniform(0.0, 1.3, (n, 1))
    x_edge, h_edge = _edge_points(field, rng)
    x = np.concatenate([inner, x_edge])
    h = np.concatenate([rng.uniform(1e-2, 1.0, (n, 1))
                        * _directions(rng, n, dim), h_edge])
    big = np.linalg.norm(h, axis=1) >= 1e-2
    x, h = x[big], h[big]
    sub = field.eval(x + h) - field.eval(x)
    assert np.max(np.abs(field.offset_diff(x, h) - sub)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_offset_diff_far_from_the_origin(dim):
    # exp(-|x|^2) leaves the normal range at |x| = 26.6; a step from there
    # back to |x + h| <= 26 reads u(x + h), since u(x)/u(x + h) < e^-53
    rng = np.random.default_rng(5)
    field, n = Gaussian(dim), 600
    far = rng.choice([27.0, 30.0, 100.0, 1e3], (n, 1))
    near = rng.uniform(0.0, 26.0, (n, 1))
    x = far * _directions(rng, n, dim)
    h = near * _directions(rng, n, dim) - x
    got = field.offset_diff(x, h)
    want = field.eval(x + h)
    assert np.all(np.abs(got - want) <= 1e-13 * want)
    # steps that stay far out, in either direction, read (almost) zero
    h_out = rng.uniform(-0.5, 2.0, (n, 1)) * x
    stay = np.linalg.norm(x + h_out, axis=1) >= 27.0
    out = field.offset_diff(x[stay], h_out[stay])
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) <= np.finfo(float).tiny)


def _rows(rng, n, d):
    # magnitudes spread over 16 decades, so the add order shows in the bits
    return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, (n, d))


_B = _ROW_BLOCK


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 5])
def test_dot_matches_einsum_bit_for_bit(d, n):
    rng = np.random.default_rng(100 * d + n % 97)
    a, b = _rows(rng, n, d), _rows(rng, n, d)
    assert np.array_equal(_dot(a, b), _einsum_dot(a, b))
    assert np.array_equal(_dot(a, a), _einsum_dot(a, a))


@pytest.mark.parametrize("d", [9, 16, 19])
def test_dot_matches_einsum_past_its_unrolled_eight_columns(d):
    rng = np.random.default_rng(d)
    a, b = _rows(rng, 1000, d), _rows(rng, 1000, d)
    assert np.array_equal(_dot(a, b), _einsum_dot(a, b))


@pytest.mark.parametrize("d", range(1, 8))
def test_dot_matches_einsum_on_broadcast_and_strided_rows(d):
    n = 2 * _B + 3
    rng = np.random.default_rng(d)
    a = _rows(rng, n, d)
    # an offset shared by every row, as Field.offset_diff broadcasts it
    off = np.broadcast_to(_rows(rng, 1, d)[0], a.shape)
    assert np.array_equal(_dot(a, off), _einsum_dot(a, off))
    # every other row of a larger array
    wide = _rows(rng, 2 * n, d)
    assert np.array_equal(_dot(wide[::2], a), _einsum_dot(wide[::2], a))


@pytest.mark.parametrize("d", range(1, 8))
def test_dot_does_not_depend_on_the_memory_layout(d):
    rng = np.random.default_rng(7 + d)
    a, b = _rows(rng, _B + 9, d), _rows(rng, _B + 9, d)
    want = _dot(a, b)
    assert np.array_equal(_dot(np.asfortranarray(a), np.asfortranarray(b)),
                          want)
    assert np.array_equal(_dot(np.ascontiguousarray(a.T).T,
                               np.ascontiguousarray(b.T).T), want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dot_of_inf_nan_and_overflowing_rows_does_not_raise(d):
    big = np.finfo(float).max
    a = np.array([[np.inf] * d, [np.nan] * d, [big] * d, [1e-200] * d,
                  [1.0] * d])
    with np.errstate(all="raise"):
        got = _dot(a, a)
    assert np.array_equal(got, _einsum_dot(a, a), equal_nan=True)
    assert got[0] == got[2] == np.inf and np.isnan(got[1])


# ---------------------------------------------------------------------------
# the support contract: eval is exactly 0.0 beyond support_radius

SUPPORT_FIELDS = [f for d in (1, 2, 3)
                  for f in (Gaussian(d), SmoothBump(d, 0.7), Tent(d),
                            Gaussian(d).scaled(-2.5),
                            SmoothBump(d, 0.7).scaled(3.0),
                            Tent(d).scaled(0.5))]


@pytest.mark.parametrize("field", SUPPORT_FIELDS, ids=_field_id)
def test_fields_are_exactly_zero_beyond_their_support_radius(field):
    big_r = field.support_radius
    rng = np.random.default_rng(field.dim)
    n = 2000
    r = rng.uniform(big_r * (1.0 + 1e-9), 10.0 * big_r, (n, 1))
    r[:2, 0] = big_r * (1.0 + 1e-9), 1e300
    x = r * _directions(rng, n, field.dim)
    assert np.all(field.eval(x) == 0.0)


def test_only_fields_that_vanish_state_a_support_radius():
    assert Gaussian(2).support_radius == math.sqrt(746.0)
    assert math.exp(-746.0) == 0.0
    assert Linear((1.0, 2.0)).support_radius is None
    assert Tent(2).scaled(3.0).support_radius == 1.0
    assert Tent(2).shifted(0.0).support_radius == 1.0
    # u + c is c, not 0.0, beyond the support of u
    for field in (Tent(2).shifted(1.0), Gaussian(3).shifted(-0.5),
                  SmoothBump(1, 0.5).shifted(1.0)):
        assert field.support_radius is None


def test_sobolev_norm_of_a_shifted_field_is_refused():
    # Tent(1) + 1 is not in L^2; the integral over the tent's support read
    # 6.667
    with pytest.raises(FieldError, match="compactly supported"):
        sobolev_norm_p(Tent(1).shifted(1.0), 2.0)


def test_sobolev_norm_of_the_gaussian():
    # ||u||_2^2 + ||u'||_2^2 = 2 sqrt(pi/2) = sqrt(2 pi) for exp(-x^2)
    got = sobolev_norm_p(Gaussian(1), 2.0)
    assert abs(got - math.sqrt(2.0 * math.pi)) <= 1e-14 * math.sqrt(
        2.0 * math.pi)


# ---------------------------------------------------------------------------
# the affine wrapper: scale * u + shift keeps every fact of u


def test_affine_wrappers_compose_and_name_their_map():
    u = Gaussian(1)
    x = np.array([[0.0], [0.3], [-1.2]])
    a, b = u.shifted(1.0).scaled(2.0), u.scaled(2.0).shifted(1.0)
    # these shared the id gaussian(d=1,scale=2.0,shift=1.0), and 6u was
    # named scale=3.0
    assert np.array_equal(a.eval(x), 2.0 * u.eval(x) + 2.0)
    assert np.array_equal(b.eval(x), 2.0 * u.eval(x) + 1.0)
    assert a.spec() == dict(u.spec(), scale="2.0", shift="2.0")
    assert b.spec() == dict(u.spec(), scale="2.0", shift="1.0")
    assert u.scaled(2.0).scaled(3.0).spec() == dict(u.spec(), scale="6.0")
    # the identity map names the base field
    assert u.scaled(1.0).shifted(0.0).spec() == u.spec()


def test_radial_is_a_class_fact_that_wrappers_keep():
    for field in (Gaussian(2), Tent(3), SmoothBump(2, 0.7),
                  BallIndicator(2, 0.5), Tent(2).scaled(-2.0).shifted(1.0)):
        assert field.radial
    for field in (Linear((1.0, 2.0)), SignJump(2), SignJump(1).scaled(3.0)):
        assert not field.radial


ROUND_TRIP_FIELDS = [
    wrap(f)
    for f in (Linear((1.0, -2.0), 0.5), Gaussian(2), Tent(3),
              SmoothBump(2, 0.7), SignJump(1, 0.25),
              BallIndicator(2, 0.5, 2.0, -1.0))
    for wrap in (lambda f: f, lambda f: f.scaled(-2.5),
                 lambda f: f.shifted(0.5),
                 lambda f: f.shifted(1.0).scaled(2.0),
                 lambda f: f.scaled(2.0).shifted(-1.0).scaled(0.5))]


@pytest.mark.parametrize("field", ROUND_TRIP_FIELDS, ids=_field_id)
def test_from_spec_rebuilds_every_field(field):
    # the scale and shift keys were dropped: 2 u + 0.5 came back as u
    again = from_spec(field.spec())
    assert again.spec() == field.spec()
    x = np.random.default_rng(3).uniform(-1.5, 1.5, (64, field.dim))
    assert np.array_equal(again.eval(x), field.eval(x))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("radius", [1.0, 1.5])
def test_grad_lp_norm_of_the_tent_on_a_ball(d, p, radius):
    # |grad u| = 1 almost everywhere on B_1 and 0 beyond: this raised "no
    # quadrature route"; without a split at the support edge, where |grad u|
    # jumps, B_1.5 read 2.8e-10 off in d = 2
    want = unit_ball_volume(d)
    ball = Ball(radius, d)
    assert abs(grad_lp_norm(Tent(d), ball, p) - want) <= 1e-14
    got = grad_lp_norm(Tent(d).scaled(-2.0).shifted(1.0), ball, p)
    assert abs(got - 2.0 ** p * want) <= 1e-14 * 2.0 ** p


def test_grad_lp_norm_of_the_gaussian_on_a_ball_keeps_its_bits():
    # recorded when the ball route read a per-class radial gradient
    got = grad_lp_norm(Gaussian(2), Ball(1.0, 2), 2.0)
    assert got.hex() == "0x1.ddb7ebba21740p+0"


class _Pyramid(Field):
    """max(0, 1 - |x|_inf) in d = 2: compactly supported, not radial."""

    dim = 2
    regularity = LIPSCHITZ
    support_radius = math.sqrt(2.0)

    def _eval(self, pts):
        return np.maximum(0.0, 1.0 - np.abs(pts).max(axis=1))

    def spec(self):
        return {"field": "pyramid"}


def test_sobolev_norm_of_a_non_radial_field_is_refused():
    # the d >= 2 route integrates along one axis, which only a radial field
    # allows
    with pytest.raises(FieldError, match="radial"):
        sobolev_norm_p(_Pyramid(), 2.0)


def test_laplacian_defaults_to_an_error_naming_the_field():
    for field in (Tent(1), SignJump(1), Tent(2).scaled(2.0)):
        with pytest.raises(FieldError, match="Tent has no analytic laplacian"
                           if field.radial else "SignJump"):
            field.laplacian([[0.5] * field.dim])
    lap = Gaussian(2).scaled(-2.0).shifted(3.0).laplacian([[0.1, 0.2]])
    assert lap[0] == -2.0 * Gaussian(2).laplacian([[0.1, 0.2]])[0]
