import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from plevylab import kernels as K
from plevylab.constants import sphere_area
from plevylab.quadrature import QuadratureError

RNG = lambda seed: np.random.Generator(np.random.Philox(key=[seed, 0]))

GRID = K.DEFAULT_EPS_GRID


def stable_tail(p, eps, delta):
    # closed-form weighted mass outside delta <= 1 for the stable family
    return (p - eps) * (1.0 - delta ** eps) / p + eps / p


def test_stable_normalizer_value():
    k = K.make_stable(1, 2.0, 0.5)
    # a = eps (p - eps) / (p |S^0|) with |S^0| = 2
    assert abs(float(np.exp(k.log_density(np.array([1.0])))[0]) - 0.1875) \
        < 1e-15


@pytest.mark.parametrize("d,p", [(1, 1.0), (1, 2.0), (2, 1.0), (3, 2.0)])
def test_stable_normalization_analytic(d, p):
    for eps in (0.4, 0.1, 0.02):
        if eps >= p:
            continue
        assert abs(K.normalization(K.make_stable(d, p, eps)) - 1.0) < 1e-8


def test_stable_normalization_at_eps_0_01_keeps_its_bits():
    # 0x1.0000000002ac7p+0 (1 + 2.43e-12) under the origin power map; the
    # closed-form core gives 1 + 2.43e-12 too, the error being the tail's
    got = K.normalization(K.make_stable(1, 2.0, 0.01))
    assert got.hex() == "0x1.0000000002abfp+0"


def test_stable_normalization_below_float_resolution_is_one():
    # r**(1/eps) underflowed on most nodes of the origin power map at
    # eps = 1e-3: this raised, and before that read 0.50025
    got = K.normalization(K.make_stable(1, 2.0, 1e-3))
    assert abs(got - 1.0) < 1e-11


def test_stable_rejects_bad_eps():
    with pytest.raises(K.KernelError):
        K.make_stable(2, 1.0, 1.0)  # normalizer degenerates at eps = p
    with pytest.raises(K.KernelError):
        K.make_stable(1, 2.0, -0.1)
    with pytest.raises(K.KernelError):
        K.make_stable(1, 2.0, 2.5)
    for p in (math.inf, math.nan, 0.5):
        with pytest.raises(K.KernelError):
            K.make_stable(1, p, 0.1)


def test_stable_tail_closed_form():
    for p in (1.0, 2.0):
        for eps in GRID:
            k = K.make_stable(1, p, eps)
            for delta in (0.1, 0.5, 1.0):
                assert abs(K.mass_outside(k, delta)
                           - stable_tail(p, eps, delta)) < 1e-8


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6])
@pytest.mark.parametrize("d, p", [(d, p) for d in (1, 2, 3)
                                  for p in (1.0, 2.0)])
def test_stable_closed_forms_at_small_eps(d, p, eps):
    # the origin power map collapsed its nodes below eps = 0.01; at
    # eps = 1e-6 the stored d + p - eps carries about ulp(d + p) / eps
    # relative error into the core exponent (-1.4e-10 measured)
    k = K.make_stable(d, p, eps)
    tol = 1e-9 if eps < 1e-3 else 1e-10
    assert abs(K.normalization(k) - 1.0) <= tol
    m1 = (p - eps) / p
    for delta in (0.1, 0.5):
        assert abs(K.mass_outside(k, delta) - (1.0 - m1 * delta ** eps)) \
            <= 1e-10


def test_radii_outside_the_range_are_refused_or_empty():
    k = K.make_stable(1, 2.0, 0.1)
    # NaN passed the <= 0 checks and failed as "non-finite integrand on
    # (nan, nan)"; an infinite delta recursed until RecursionError
    with pytest.raises(K.KernelError, match="delta"):
        K.mass_outside(k, math.nan)
    with pytest.raises(K.KernelError, match="R must"):
        K.weighted_moment(k, 2.0, math.nan)
    assert K.mass_outside(k, math.inf) == 0.0


def test_weighted_moments_stable():
    p, eps = 2.0, 0.1
    k = K.make_stable(1, p, eps)
    # beta = p: mass of the unit ball, -> 1 as eps -> 0
    assert abs(K.weighted_moment(k, p, 1.0) - (p - eps) / p) < 1e-10
    # beta = p + 1: closed form eps(p-eps)/(p(1+eps)), vanishing with eps
    closed = eps * (p - eps) / (p * (1 + eps))
    assert abs(K.weighted_moment(k, p + 1.0, 1.0) - closed) < 1e-10


def test_finite_upper_limit_far_above_the_split_points_keeps_the_tail():
    # one Gauss panel on (1, hi) would put every node where the r^-3.1
    # tail is already 0 and return 0.95; the decade splits keep it
    k = K.make_stable(1, 2.0, 0.1)
    assert abs(K.radial_integral(k, 0.0, 1e10, abs_tol=1e-12) - 1.0) < 1e-10
    assert abs(K.weighted_moment(k, 2.0, 1e8) - 1.0) < 1e-10
    # up to a decade above the last split point a call keeps its panels
    assert K.weighted_moment(k, 2.0, 10.0) == K.radial_integral(
        k, 0.0, 10.0, abs_tol=K.NORMALIZATION_REQUEST_TOL)


def test_weighted_moment_decreasing_in_beta():
    k = K.make_stable(1, 2.0, 0.05)
    vals = [K.weighted_moment(k, b, 1.0) for b in (2.0, 2.5, 3.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_weighted_moment_validates():
    k = K.make_stable(1, 2.0, 0.1)
    with pytest.raises(K.KernelError):
        K.weighted_moment(k, 1.5, 1.0)


def test_rescaled_preserves_normalization():
    base = K.make_stable(1, 2.0, 0.5)
    for eps in (0.25, 0.1):
        assert abs(K.normalization(K.make_rescaled(base, eps)) - 1.0) < 1e-8


def test_rescaled_identity_at_one():
    base = K.make_stable(1, 2.0, 0.5)
    k = K.make_rescaled(base, 1.0)
    r = np.array([0.3, 0.7, 1.5, 3.0])
    assert np.allclose(np.exp(k.log_density(r)), np.exp(base.log_density(r)),
                       rtol=1e-13)


def test_rescaled_concentrates():
    base = K.make_stable(1, 2.0, 0.5)
    masses = [K.mass_outside(K.make_rescaled(base, eps), 0.5)
              for eps in (0.4, 0.2, 0.1, 0.05)]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_rescaled_rejects_unnormalized_base():
    bad = K.RadialKernel(dim=1, p_exp=2.0,
                         profile=lambda r: np.where(r <= 1.0, 1.0, 0.0),
                         support_radius=1.0, breakpoints=(1.0,))
    with pytest.raises(K.KernelError, match="0.666"):
        K.make_rescaled(bad, 0.5)


def test_truncated_power_analytic():
    k = K.make_truncated_power(1, 2.0, 0.0, 0.5)
    assert abs(K.normalization(k) - 1.0) < 1e-12
    # compact support: nothing outside radii >= eps
    assert K.mass_outside(k, 0.5) == 0.0
    assert K.mass_outside(k, 0.7) == 0.0
    for beta in (-1.0, math.nan, math.inf):
        with pytest.raises(K.KernelError):
            K.make_truncated_power(1, 2.0, beta, 0.5)
    # eps^(d+beta) underflows: the error names beta, not a division by 0
    for beta in (1e308, 400.0):
        with pytest.raises(K.KernelError, match=re.escape("beta=%r" % beta)):
            K.make_truncated_power(1, 2.0, beta, 0.1)


def test_truncated_power_beta_p_is_uniform():
    # beta = p cancels the |h|^(beta-p) factor
    k = K.make_truncated_power(1, 2.0, 2.0, 0.5)
    r = np.array([0.1, 0.3, 0.49])
    vals = np.exp(k.log_density(r))
    assert np.allclose(vals, vals[0])


def test_log_limit_analytic():
    k = K.make_log_limit(1, 1.0, 0.1, 0.5)
    assert abs(K.normalization(k) - 1.0) < 1e-12
    # annulus support
    assert float(np.exp(k.log_density(np.array([0.05])))[0]) == 0.0
    assert float(np.exp(k.log_density(np.array([0.6])))[0]) == 0.0


def test_smoothed_power_normalization():
    for beta in (-0.5, 0.0, 1.0):
        k = K.make_smoothed_power(1, 2.0, beta, 0.1, 0.5)
        assert abs(K.normalization(k) - 1.0) < 1e-6
    k = K.make_smoothed_power(2, 2.0, -2.0, 0.05, 0.5)  # log variant
    assert abs(K.normalization(k) - 1.0) < 1e-6
    for beta in (-1.5, math.nan, math.inf):
        with pytest.raises(K.KernelError, match="finite beta >= -d"):
            K.make_smoothed_power(1, 2.0, beta, 0.1, 0.5)


def test_smoothing_constant_log_variant_tends_to_one():
    # the log-normalized constant approaches 1; the plain power variant
    # instead approaches eps0^(d+beta)/(d+beta)
    d, eps0 = 1, 0.5
    log_bs = [K.smoothing_constant(d, -1.0, eps, eps0)
              for eps in (0.1, 0.05, 0.02)]
    gaps = [abs(b - 1.0) for b in log_bs]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.2
    # for beta = 0 in d = 1 the constant equals eps0^(d+beta)/(d+beta)
    # exactly, independent of eps
    pow_limit = eps0 ** (d + 0.0) / (d + 0.0)
    pow_bs = [K.smoothing_constant(d, 0.0, eps, eps0)
              for eps in (0.1, 0.02)]
    assert all(abs(b - pow_limit) < 1e-12 for b in pow_bs)


# b_eps |log eps| = int_{t0}^1 t^(-1) (1-t)^(d-1) dt, t0 = eps/(eps+eps0)
LOG_VARIANT_T_INTEGRAL = {
    1: lambda t0: -math.log(t0),
    2: lambda t0: -math.log(t0) - (1.0 - t0),
    3: lambda t0: -math.log(t0) - 2.0 * (1.0 - t0) + (1.0 - t0 ** 2) / 2.0,
}


@pytest.mark.parametrize("d", sorted(LOG_VARIANT_T_INTEGRAL))
def test_smoothing_constant_log_variant_closed_form(d):
    eps0 = 0.5
    for eps in (0.2, 0.05, 0.01):
        t0 = eps / (eps + eps0)
        want = LOG_VARIANT_T_INTEGRAL[d](t0) / abs(math.log(eps))
        got = K.smoothing_constant(d, -float(d), eps, eps0)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("d, beta", [(1, 340.0), (3, 338.0)])
def test_smoothing_constant_below_the_normal_range_raises(d, beta):
    # eps^(d + beta) underflows: b_eps (about 1e-78) read 0.0, and the
    # kernel's log normalizer then raised a math domain error
    match = "beta=%r is too large for eps=0.1, d=%d" % (beta, d)
    with pytest.raises(K.KernelError, match=match):
        K.smoothing_constant(d, beta, 0.1, 0.5)
    with pytest.raises(K.KernelError, match=match):
        K.make_smoothed_power(d, 2.0, beta, 0.1, 0.5)


def _each_constructor(dim, p):
    yield lambda: K.make_stable(dim, p, 0.1)
    yield lambda: K.make_truncated_power(dim, p, 0.0, 0.1)
    yield lambda: K.make_log_limit(dim, p, 0.1, 0.5)
    yield lambda: K.make_smoothed_power(dim, p, -0.5, 0.1, 0.5)


@pytest.mark.parametrize("dim,p", [(1, math.inf), (1, math.nan), (1, 0.5),
                                   (0, 2.0)])
def test_constructors_reject_bad_dim_or_p(dim, p):
    for make in _each_constructor(dim, p):
        with pytest.raises(K.KernelError):
            make()


def test_nan_log_profile_raises():
    # NaN on (0, 0.5] must not be read as nu = 0
    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 0.5, np.nan,
                        np.where(r <= 1.0, math.log(1.5), -np.inf))

    kern = K.RadialKernel(dim=1, p_exp=2.0, log_profile=log_profile,
                          support_radius=1.0, breakpoints=(0.5, 1.0))
    with pytest.raises(K.KernelError, match="NaN"):
        K.normalization(kern)
    # at r = 0 and r = inf the weight exponent 0 * log r is NaN: those
    # endpoints are quadrature artifacts and still read as 0
    unit = K.make_stable(1, 2.0, 0.1)
    ends = unit.weighted_radial_density(np.array([0.0, np.inf]),
                                        weight_beta=0.0)
    assert np.all(ends == 0.0)


def test_infinite_log_profile_raises():
    # +inf on (0, 0.1) was read as nu = 0: the normalization of this kernel
    # printed 4.60517018598809
    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 0.1, np.inf, -3.0 * np.log(r))

    kern = K.RadialKernel(dim=1, p_exp=2.0, log_profile=log_profile,
                          support_radius=1.0, breakpoints=(0.1,))
    with pytest.raises(K.KernelError, match=r"\+inf at a radius"):
        K.normalization(kern)
    with pytest.raises(K.KernelError, match=r"\+inf at a radius"):
        kern.weighted_radial_density(np.array([0.05]))


def test_unknown_family_kind_raises():
    with pytest.raises(K.KernelError, match="unknown family kind"):
        K.KernelFamily("foo", 1, 2.0)


def test_normalization_examples():
    ind = K.RadialKernel(dim=1, p_exp=2.0,
                         profile=lambda r: np.where(r <= 1.0, 1.0, 0.0),
                         support_radius=1.0, breakpoints=(1.0,))
    assert abs(K.normalization(ind) - 2.0 / 3.0) < 1e-10
    divergent = K.RadialKernel(dim=1, p_exp=2.0,
                               profile=lambda r: np.power(r, -3.0),
                               origin_exponent=3.0, tail_exponent=3.0)
    with pytest.raises(QuadratureError):
        K.normalization(divergent)


def test_family_grid_axioms():
    # every family kind: unit mass on every grid eps, tail mass at 0.1
    # strictly decreasing while positive (compact supports reach exactly 0)
    for fam in K.default_families(1, 2.0):
        masses = []
        for eps in fam.default_grid():
            kern = fam.kernel(eps)
            assert abs(K.normalization(kern) - 1.0) < 1e-6, fam.kind
            masses.append(K.mass_outside(kern, 0.1))
        for a, b in zip(masses, masses[1:]):
            assert b < a or (a == 0.0 and b == 0.0), (fam.kind, masses)


@pytest.mark.parametrize("kind, eps0, grid", [
    # log_limit kept 0.08 above eps0 = 0.05, where its kernel is refused
    ("log_limit", 0.05, (0.04, 0.02, 0.01, 0.005)),
    ("smoothed_power", 0.1, (0.05, 0.02)),
    ("smoothed_power", 0.01, ()),
])
def test_default_grids_stop_below_eps0(kind, eps0, grid):
    assert K.KernelFamily(kind, 1, 2.0, eps0=eps0).default_grid() == grid


def test_family_concentration_below_threshold():
    # fully concentrating families fall below 0.05 at the smallest grid eps
    # (the stable family sits just above at delta = 0.1 and is checked
    # against its own closed form instead)
    for fam in K.default_families(1, 2.0):
        eps_min = fam.default_grid()[-1]
        kern = fam.kernel(eps_min)
        if fam.kind == "stable":
            closed = stable_tail(2.0, eps_min, 0.1)
            assert K.mass_outside(kern, 0.1) <= closed + 1e-8
        elif fam.kind in ("rescaled", "truncated_power"):
            assert K.mass_outside(kern, 0.1) < 0.05
        for delta in (0.5, 1.0):
            if fam.kind == "stable":
                assert K.mass_outside(kern, delta) \
                    <= stable_tail(2.0, eps_min, delta) + 1e-8
            else:
                assert K.mass_outside(kern, delta) < 0.05


def test_family_validity_window():
    fam = K.KernelFamily("stable", 1, 2.0)
    with pytest.raises(K.KernelError):
        fam.kernel(2.0)
    with pytest.raises(K.KernelError):
        K.KernelFamily("log_limit", 1, 1.0, eps0=0.5).kernel(0.6)


def test_every_family_builds_with_its_default_parameters():
    # parameters left unset take FAMILY_PARAMS' defaults
    for kind in K.FAMILY_KINDS:
        fam = K.KernelFamily(kind, 1, 2.0)
        K.check_normalized(fam.kernel(fam.default_grid()[0]))


@pytest.mark.parametrize("kind", K.FAMILY_PARAMS)
def test_family_spec_roundtrip(kind):
    other = {"beta": 1.0, "eps0": 0.3, "base_eps": 0.25}
    params = {k: other[k] for k in K.FAMILY_PARAMS[kind]}
    for fam in (K.KernelFamily(kind, 1, 2.0),
                K.KernelFamily(kind, 1, 2.0, **params)):
        assert set(fam.spec()) == {"family", "d", "p",
                                   *K.FAMILY_PARAMS[kind]}
        again = K.family_from_spec(fam.spec())
        assert again == fam
        eps = fam.default_grid()[-1]
        r = np.geomspace(1e-3, 2.0, 9)
        assert np.array_equal(again.kernel(eps).log_density(r),
                              fam.kernel(eps).log_density(r))


def _fractional_mass(kind, d, p, x):
    # the (1 ^ |h|^p)-mass of a fractional family's kernel at its index
    area = sphere_area(d)
    if kind == "frac_order":
        return area / p + area * (1.0 - x) / (x * p)
    if kind == "frac_ball":
        return area / d
    return area + area / (p * abs(math.log(x)))


@pytest.mark.parametrize("kind", K.FRACTIONAL_KINDS)
@pytest.mark.parametrize("d, p", [(d, p) for d in (1, 2, 3)
                                  for p in (1.0, 2.0)])
def test_fractional_normalization_is_its_closed_form(kind, d, p):
    fam = K.KernelFamily(kind, d, p)
    for x in fam.default_grid():
        mass = _fractional_mass(kind, d, p, x)
        assert abs(K.normalization(fam.kernel(x)) - mass) <= 1e-10 * mass


@pytest.mark.parametrize("kind", K.FRACTIONAL_KINDS)
def test_fractional_mass_tends_to_the_mass_limit(kind):
    # S/p, S/d and S in d = p = 2
    fam, area = K.KernelFamily(kind, 2, 2.0), sphere_area(2)
    limit = {"frac_order": area / 2.0, "frac_ball": area / 2,
             "frac_log": area}[kind]
    assert fam.mass_limit() == limit
    gaps = [abs(K.normalization(fam.kernel(x)) - limit)
            for x in fam.default_grid()]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.03 * limit


def test_default_families_are_the_five_unit_mass_kinds():
    fams = K.default_families(2, 1.0)
    assert tuple(f.kind for f in fams) == K.FAMILY_KINDS == (
        "stable", "rescaled", "truncated_power", "smoothed_power",
        "log_limit")
    assert all(f.mass_limit() == 1.0 for f in fams)
    assert set(K.FAMILY_PARAMS) == {*K.FAMILY_KINDS, *K.FRACTIONAL_KINDS}


def test_family_rejects_a_parameter_its_kind_does_not_take():
    with pytest.raises(K.KernelError, match="takes no beta"):
        K.KernelFamily("stable", 1, 2.0, beta=1.0)
    with pytest.raises(K.KernelError, match="takes no eps0"):
        K.KernelFamily("truncated_power", 1, 2.0, eps0=0.5)


def test_rescaled_family_reaches_eps_one():
    # the family's window is make_rescaled's own, 0 < eps <= 1
    kern = K.KernelFamily("rescaled", 1, 2.0).kernel(1.0)
    want = K.make_rescaled(K.make_stable(1, 2.0, 0.5), 1.0)
    r = np.array([1e-3, 0.3, 1.0, 2.5])
    assert np.array_equal(kern.log_density(r), want.log_density(r))
    assert kern.spec() == want.spec()


def test_rescaled_custom_base_without_a_core_claims_none():
    # 1.25 r^-0.5 on (0, 1] has unit mass and gives its origin coefficient
    # and exponent, but claims no closed-form core (no pure radius); its
    # weighted law 2.5 r^1.5 has the inverse CDF v^0.4
    base = K.RadialKernel(
        dim=1, p_exp=2.0,
        profile=lambda r: np.where(r <= 1.0, 1.25 * np.power(r, -0.5), 0.0),
        support_radius=1.0, breakpoints=(1.0,), origin_exponent=0.5,
        origin_coefficient=1.25,
        radial_sampler=lambda rng, size: rng.random(size) ** 0.4)
    kern = K.make_rescaled(base, 0.2)
    assert kern.origin_pure_radius == 0.0
    assert kern.support_radius == 0.2


def test_closed_form_core_needs_coefficient_and_exponent():
    box = dict(dim=1, p_exp=2.0, profile=lambda r: np.ones_like(r),
               support_radius=1.0)
    with pytest.raises(K.KernelError, match="closed-form core"):
        K.RadialKernel(origin_pure_radius=0.5, origin_exponent=0.0, **box)
    with pytest.raises(K.KernelError, match="closed-form core"):
        K.RadialKernel(origin_pure_radius=0.5, origin_coefficient=1.0, **box)
    assert K.RadialKernel(**box).origin_pure_radius == 0.0
    assert K.RadialKernel(dim=1, p_exp=2.0,
                          profile=box["profile"]).support_radius == math.inf


# one kernel of every family; the sampler tests check each one's draws
# against its own density
SAMPLED = [
    lambda: K.make_stable(1, 2.0, 0.1),
    lambda: K.make_truncated_power(2, 2.0, 1.0, 0.3),
    lambda: K.make_log_limit(1, 1.0, 0.05, 0.5),
    lambda: K.make_smoothed_power(1, 2.0, -0.5, 0.1, 0.5),
    lambda: K.KernelFamily("rescaled", 1, 2.0).kernel(0.1),
]
# the families that invert their CDF in closed form
CLOSED_FORM = [make for make in SAMPLED
               if make().family_tag != "smoothed_power"]
# the rejection sampler over d = 1-3, at the log variant beta = -d and
# beyond (d = 1, beta = -0.5 is SAMPLED's)
SMOOTHED = [
    pytest.param(lambda d=d, beta=beta: K.make_smoothed_power(
        d, 2.0, beta, 0.1, 0.5), id="smoothed-d%d-beta%g" % (d, beta))
    for d in (1, 2, 3) for beta in (-d, -0.5, 1.0, 50.0)
    if (d, beta) != (1, -0.5)]


class _Probe:
    """A generator stub whose ``random(size)`` returns the probe values,
    so that a closed-form sampler reads as its inverse CDF."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def random(self, size):
        assert size == self.v.size
        return self.v.copy()


def _inverse(kern, v):
    v = np.atleast_1d(v)
    return kern.radial_sampler(_Probe(v), v.size)


def test_cdf_axioms():
    v = np.concatenate((np.linspace(0.0, 1.0, 41), [1.0 - 1e-6, 1.0 - 1e-9]))
    v.sort()
    for make in CLOSED_FORM:
        kern = make()
        r = _inverse(kern, v)
        assert np.all(np.diff(r) >= 0.0)
        assert r[0] >= kern.inner_radius and r[-1] <= kern.support_radius
        # the mass below each drawn radius is the probability that drew it,
        # up to v = 1 (r ~ 1e157 for the stable kernel)
        mass = np.array([K.radial_integral(kern, 0.0, float(x),
                                           abs_tol=1e-13) for x in r])
        assert np.max(np.abs(mass - v)) <= 1e-12, kern.family_tag


def _offsets(kern, rng, size):
    # the Monte Carlo offsets: radii, then directions from the same stream,
    # scaled by the radii
    radii = K._draw_radii(kern, rng, size)
    return K.sample_directions(rng, size, kern.dim) * radii[:, None]


def test_sampler_matches_tail_mass():
    kern = K.make_stable(1, 2.0, 0.1)
    n = 1_000_000
    h = _offsets(kern, RNG(11), n)
    assert np.all(np.isfinite(h))
    for delta in (0.1, 0.5, 1.0):
        frac = float((np.abs(h[:, 0]) > delta).mean())
        target = K.mass_outside(kern, delta)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(frac - target) <= 4.0 * se


def test_sampler_respects_support():
    kern = K.make_truncated_power(2, 2.0, 1.0, 0.3)
    h = _offsets(kern, RNG(4), 100_000)
    assert np.linalg.norm(h, axis=1).max() <= 0.3 + 1e-12


def _box_kernel(radius):
    # unit (1 ^ r^2)-mass constant profile on the ball of the given radius
    c = 1.5 / radius ** 3
    return K.RadialKernel(dim=1, p_exp=2.0,
                          profile=lambda r: np.where(r <= radius, c, 0.0),
                          support_radius=radius, breakpoints=(radius,))


def test_sampling_needs_sampling_data():
    kern = _box_kernel(0.5)
    with pytest.raises(K.KernelError, match="radial_sampler"):
        K._draw_radii(kern, RNG(1), 10)
    with pytest.raises(K.KernelError, match="radial_sampler"):
        K._draw_radii(K.make_rescaled(kern, 0.5), RNG(1), 10)
    # the box's weighted law 3 r^2 / 0.5^3 has the inverse CDF 0.5 v^(1/3)
    sampled = dataclasses.replace(
        kern, radial_sampler=lambda rng, n: 0.5 * np.cbrt(rng.random(n)))
    radii = K._draw_radii(sampled, RNG(1), 1000)
    assert radii.max() <= 0.5


def _mass_below(kern, radii, block=1 << 17):
    """The weighted mass below each of the sorted radii: one adaptive
    integral up to the first, then a 12-point Gauss panel between each
    pair of neighbours, in blocks of panels to bound the memory."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo, hi = radii[:-1], radii[1:]
    segs = []
    for i in range(0, lo.size, block):
        a, b = lo[i:i + block], hi[i:i + block]
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        vals = kern.weighted_radial_density(x.ravel()).reshape(x.shape)
        segs.append(half * (vals @ weights))
    first = K.radial_integral(kern, 0.0, float(radii[0]),
                              abs_tol=K.NORMALIZATION_REQUEST_TOL)
    return first + np.concatenate(([0.0], np.cumsum(np.concatenate(segs))))


@pytest.mark.parametrize("make", SAMPLED + SMOOTHED)
def test_sampler_ks_distance(make):
    kern = make()
    radii = kern.radial_sampler(RNG(23), 1_000_000)
    radii = np.sort(radii)
    cdf = _mass_below(kern, radii)
    n = radii.size
    grid_hi = np.arange(1, n + 1) / n
    ks = max(float(np.max(np.abs(cdf - grid_hi))),
             float(np.max(np.abs(cdf - (grid_hi - 1.0 / n)))))
    assert ks <= 0.005


def test_smoothed_power_sampler_at_large_beta():
    # d = 1 accepts every proposal, so the law's CDF is the envelope's, in
    # closed form: (e^(a log1p(r/eps)) - 1) / expm1(a L), a = beta + 1
    eps, eps0, a = 0.1, 0.5, 201.0
    kern = K.make_smoothed_power(1, 2.0, a - 1.0, eps, eps0)
    median = eps * math.expm1(
        math.log(0.5 * math.expm1(a * math.log1p(eps0 / eps)) + 1.0) / a)
    assert abs(median - 0.497934) < 5e-7
    n = 1_000_000
    radii = kern.radial_sampler(RNG(7), n)
    assert radii.max() <= eps0
    # the fraction below the exact median, within 4 binomial stderrs
    assert abs(float((radii <= median).mean()) - 0.5) <= 4.0 * 0.5 / n ** 0.5


def test_smoothed_power_sampler_memory_is_bounded():
    # the rejection rounds work on blocks of _ROW_BLOCK proposals in one
    # reused buffer: a whole-array round would take about 8x the output
    kern = K.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5)
    n = 262_144
    kern.radial_sampler(RNG(3), 1000)  # numpy's one-off set-up, untraced
    tracemalloc.start()
    try:
        radii = kern.radial_sampler(RNG(3), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert radii.size == n
    assert peak <= 2.0 * radii.nbytes, peak


def test_kernel_spec_roundtrip():
    for spec in ({"family": "stable", "d": "1", "p": "2.0", "eps": "0.1"},
                 {"family": "truncated_power", "d": "2", "p": "1.0",
                  "beta": "1.0", "eps": "0.3"},
                 {"family": "log_limit", "d": "1", "p": "1.0",
                  "eps0": "0.5", "eps": "0.05"},
                 {"family": "rescaled", "d": "1", "p": "2.0",
                  "base_eps": "0.5", "eps": "0.1"},
                 {"family": "smoothed_power", "d": "2", "p": "2.0",
                  "beta": "-0.5", "eps0": "0.5", "eps": "0.1"}):
        kern = K.kernel_from_spec(spec)
        again = K.kernel_from_spec(dict(kern.spec()))
        r = np.array([0.05, 0.2, 0.9])
        assert np.allclose(np.exp(kern.log_density(r)),
                           np.exp(again.log_density(r)))


def _stable_nu(d, p, eps, r):
    return eps * (p - eps) / (p * sphere_area(d)) * r ** (-d - p + eps)


def _rescaled_nu(r):
    # make_rescaled(make_stable(1, 2.0, 0.5), 0.1): d = 1, p = 2
    z = _stable_nu(1, 2.0, 0.5, r / 0.1)
    return np.where(r <= 0.1, 0.1 ** -3 * z,
                    np.where(r <= 1.0, 0.1 ** -1 * r ** -2.0 * z,
                             0.1 ** -1 * z))


def _smoothed_nu(r):
    # make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5)
    denom = sphere_area(2) * K.smoothing_constant(2, -0.5, 0.1, 0.5)
    return np.where(r <= 0.5, (r + 0.1) ** -0.5 * r ** -2.0 / denom, 0.0)


# (built-in kernel, its closed-form density, interior, edge and outside radii)
BUILTIN_DENSITIES = {
    "stable": (lambda: K.make_stable(2, 1.5, 0.1),
               lambda r: _stable_nu(2, 1.5, 0.1, r), (1e-6, 0.3, 1.0, 50.0)),
    "rescaled": (lambda: K.make_rescaled(K.make_stable(1, 2.0, 0.5), 0.1),
                 _rescaled_nu, (0.03, 0.1, 0.5, 1.0, 3.0)),
    "truncated_power": (
        lambda: K.make_truncated_power(2, 2.0, 1.0, 0.3),
        lambda r: np.where(r <= 0.3, 3.0 / (sphere_area(2) * 0.3 ** 3) / r,
                           0.0), (1e-6, 0.1, 0.3, 0.6)),
    "smoothed_power": (lambda: K.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5),
                       _smoothed_nu, (1e-6, 0.1, 0.5, 0.7)),
    "log_limit": (
        lambda: K.make_log_limit(1, 1.0, 0.1, 0.5),
        lambda r: np.where((r > 0.1) & (r <= 0.5),
                           r ** -2.0 / (2.0 * math.log(5.0)), 0.0),
        (0.05, 0.1, 0.3, 0.5, 0.6)),
    "power_window": (
        lambda: K._power_window(1, 2.0, 3.0, cutoff=0.1, top=0.5),
        lambda r: np.where((r > 0.1) & (r <= 0.5), r ** -3.0, 0.0),
        (0.05, 0.1, 0.3, 0.5, 0.6)),
    "frac_order": (lambda: K.KernelFamily("frac_order", 2, 1.5).kernel(0.9),
                   lambda r: 0.1 * r ** -3.35, (1e-6, 0.3, 1.0, 50.0)),
    "frac_ball": (lambda: K.KernelFamily("frac_ball", 2, 1.5).kernel(0.3),
                  lambda r: np.where(r <= 0.3, r ** -1.5 / 0.09, 0.0),
                  (1e-6, 0.1, 0.3, 0.6)),
    "frac_log": (lambda: K.KernelFamily("frac_log", 1, 2.0).kernel(0.1),
                 lambda r: np.where(r > 0.1, r ** -3.0 / math.log(10.0), 0.0),
                 (0.05, 0.1, 0.3, 1.0, 50.0)),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_DENSITIES))
def test_builtin_kernels_carry_only_a_log_density(name):
    make, closed, radii = BUILTIN_DENSITIES[name]
    kern = make()
    assert kern.profile is None
    r = np.array(radii)
    got = np.exp(kern.log_density(r))
    want = closed(r)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


# the power-window families as each wrote its own density: log nu(r) as
# float.hex at radii below, at and above the window's edges and at r = 1,
# and every field (floats as float.hex)
_INF = float("inf").hex()
POWER_WINDOW_PINS = {
    "stable": (
        lambda: K.make_stable(2, 2.0, 0.1),
        (0.0, 1e-300, 0.5, 1.0, 2.0, 1e300, math.inf),
        ("inf", "0x1.503aa653359fep+11", "-0x1.7d0d1ecac3f16p+0",
         "-0x1.0c45b8aab726ap+2", "-0x1.b94829a2bd50ep+2",
         "-0x1.5146ec0be0570p+11", "-inf"),
        {"family": "stable", "d": "2", "p": "2.0", "eps": "0.1"},
        dict(breakpoints=(), support_radius=_INF,
             inner_radius="0x0.0p+0", tail_exponent="0x1.f333333333333p+1",
             origin_exponent="0x1.f333333333333p+1",
             origin_coefficient="0x1.ef7166970268ap-7",
             origin_pure_radius=_INF)),
    "truncated_power": (
        lambda: K.make_truncated_power(1, 1.0, 1.0, 0.1),
        (0.0, 0.05, 0.1, 0.2, 1.0),
        ("nan", "0x1.26bb1bbb55515p+2", "0x1.26bb1bbb55515p+2", "-inf",
         "-inf"),
        {"family": "truncated_power", "d": "1", "p": "1.0", "eps": "0.1",
         "beta": "1.0"},
        dict(breakpoints=("0x1.999999999999ap-4",),
             support_radius="0x1.999999999999ap-4", inner_radius="0x0.0p+0",
             tail_exponent=None, origin_exponent="0x0.0p+0",
             origin_coefficient="0x1.8ffffffffffffp+6",
             origin_pure_radius="0x1.999999999999ap-4")),
    "log_limit": (
        lambda: K.make_log_limit(3, 2.0, 0.02, 0.5),
        (0.01, 0.02, 0.03, 0.5, 0.7, 1.0),
        ("-inf", "-inf", "0x1.baa5bfcf6272ap+3", "-0x1.dfe36fd3662f0p-3",
         "-inf", "-inf"),
        {"family": "log_limit", "d": "3", "p": "2.0", "eps": "0.02",
         "eps0": "0.5"},
        dict(breakpoints=("0x1.47ae147ae147bp-6", "0x1.0000000000000p-1"),
             support_radius="0x1.0000000000000p-1",
             inner_radius="0x1.47ae147ae147bp-6", tail_exponent=None,
             origin_exponent=None, origin_coefficient=None,
             origin_pure_radius="0x0.0p+0")),
}


@pytest.mark.parametrize("name", sorted(POWER_WINDOW_PINS))
def test_power_window_families_are_bit_pinned(name):
    make, radii, log_density, spec, fields = POWER_WINDOW_PINS[name]
    kern = make()
    with np.errstate(divide="ignore", invalid="ignore"):
        got = kern.log_density(np.array(radii))
    assert tuple(float(v).hex() for v in got) == log_density
    assert kern.spec() == spec
    assert tuple(b.hex() for b in kern.breakpoints) == fields["breakpoints"]
    for field_name, want in fields.items():
        if field_name != "breakpoints":
            value = getattr(kern, field_name)
            assert (None if value is None else float(value).hex()) == want, \
                field_name


@pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-310, math.inf, math.nan,
                                   -1.0])
def test_power_window_refuses_a_scale_that_is_not_a_positive_normal_float(
        scale):
    with pytest.raises(K.KernelError,
                       match=r"the frac_ball kernel at eps=0\.25, gamma=2\.0, "
                             r"cutoff=0\.0 has scale %s" % re.escape(
                                 repr(scale))):
        K._power_window(1, 2.0, 2.0, scale=scale, top=0.25,
                        family_tag="frac_ball", eps=0.25)


def test_log_limit_refuses_a_scale_that_rounds_to_0():
    # eps0/eps overflows: this ended in "math domain error"
    with pytest.raises(K.KernelError, match=re.escape(
            "log_limit kernel at eps=1e-320, eps0=0.5 has scale 0.0")):
        K.make_log_limit(1, 2.0, 1e-320, 0.5)


@pytest.mark.parametrize("d, p, eps", [(1, 2.0, 1e-17), (2, 1.0, 5e-324),
                                       (3, 2.0, 4e-16)])
def test_stable_refuses_an_eps_that_leaves_d_plus_p_unmoved(d, p, eps):
    # at eps = 1e-17 this read "radial integral diverges at the origin"
    with pytest.raises(K.KernelError, match=re.escape(
            "got eps=%r, d + p = %r" % (eps, d + p))):
        K.make_stable(d, p, eps)
    assert K.make_stable(d, p, 1e-14).origin_exponent < d + p


def test_custom_profile_is_read_in_log_space():
    kern = _box_kernel(0.5)
    assert kern.log_profile is None
    r = np.array([1e-3, 0.2, 0.5, 0.7])
    with np.errstate(divide="ignore"):
        assert np.array_equal(kern.log_density(r), np.log(kern.profile(r)))


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_negative_or_nan_custom_profile_raises(bad):
    kern = K.RadialKernel(dim=1, p_exp=2.0,
                          profile=lambda r: np.where(r <= 1.0, bad, 0.0),
                          support_radius=1.0, breakpoints=(1.0,))
    with pytest.raises(K.KernelError, match="negative or NaN"):
        kern.log_density(np.array([0.5]))
    with pytest.raises(K.KernelError, match="negative or NaN"):
        K.normalization(kern)


def test_kernel_needs_a_density():
    with pytest.raises(K.KernelError, match="log_profile or a profile"):
        K.RadialKernel(dim=1, p_exp=2.0, support_radius=1.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_directions_are_unit_rows(dim):
    dirs = K.sample_directions(RNG(8), 100_000, dim)
    assert dirs.shape == (100_000, dim)
    norms = np.sqrt(np.sum(dirs * dirs, axis=1))
    assert np.all(np.abs(norms - 1.0) <= 2.0 * np.spacing(1.0))


def test_directions_in_one_dimension_are_signs():
    dirs = K.sample_directions(RNG(9), 10_000, 1)
    assert dirs.shape == (10_000, 1)
    assert set(np.unique(dirs)) == {-1.0, 1.0}


class _ZeroRowGenerator:
    """Gaussian draws whose second row is exactly zero."""

    def normal(self, size):
        g = RNG(10).normal(size=size)
        g[1] = 0.0
        return g


@pytest.mark.parametrize("dim", [2, 3])
def test_zero_gaussian_row_gives_a_zero_direction(dim):
    dirs = K.sample_directions(_ZeroRowGenerator(), 5, dim)
    assert np.all(np.isfinite(dirs))
    assert np.array_equal(dirs[1], np.zeros(dim))
    assert np.all(np.abs(np.linalg.norm(dirs[[0, 2, 3, 4]], axis=1) - 1.0)
                  <= 2.0 * np.spacing(1.0))


def _stable_inverse_both_branches(v, p, eps):
    # the piecewise inverse with both branches formed over every sample
    m1 = (p - eps) / p
    lo = np.power(np.clip(v, 0.0, m1) / m1, 1.0 / eps)
    w = np.maximum(1.0 - v, 1e-300)
    hi = np.power(w * p / eps, -1.0 / (p - eps))
    return np.where(v <= m1, lo, hi)


def _reference_offsets(dim, p, eps, rng, size):
    # the stable sampler formed with whole-array temporaries: radii, then
    # directions normalized by np.linalg.norm, then scaled by the radii
    radii = _stable_inverse_both_branches(rng.random(size), p, eps)
    if dim == 1:
        dirs = rng.integers(0, 2, size=(size, 1)) * 2.0 - 1.0
    else:
        g = rng.normal(size=(size, dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs = g / norms
    return radii[:, None] * dirs, radii


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stable_offsets_match_reference_bit_for_bit(dim):
    # the in-place inverse branches and direction norms give the same bits
    # as the whole-array forms
    kern = K.make_stable(dim, 2.0, 0.3)
    h = _offsets(kern, RNG(12), 300_000)
    radii = K._draw_radii(kern, RNG(12), 300_000)
    want_h, want_radii = _reference_offsets(dim, 2.0, 0.3, RNG(12), 300_000)
    assert np.array_equal(radii, want_radii)
    assert np.array_equal(h, want_h)


def test_stable_inverse_cdf_edges_and_scalars():
    kern = K.make_stable(2, 2.0, 0.3)
    v = np.array([0.0, 0.85, 1.0, -0.5, 1.5, 0.25, 0.99])
    want = _stable_inverse_both_branches(v, 2.0, 0.3)
    assert np.array_equal(_inverse(kern, v), want)
    assert [float(_inverse(kern, x)[0]) for x in v] == list(want)
