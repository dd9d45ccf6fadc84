import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plevylab import functionals as F
from plevylab import kernels as K
from plevylab.constants import sphere_area
from plevylab.quadrature import QuadratureError, fixed_gauss

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
    # the value of the power map that scored collapsed nodes 0; none
    # collapses at this eps
    got = K.normalization(K.make_stable(1, 2.0, 0.01))
    assert got.hex() == "0x1.0000000002ac7p+0"


def test_stable_normalization_below_float_resolution_raises():
    # r**(1/eps) underflows on most nodes of the power map at eps = 1e-3;
    # the normalization of this unit-mass kernel read 0.50025
    with pytest.raises(QuadratureError, match="alpha=0.001"):
        K.normalization(K.make_stable(1, 2.0, 1e-3))


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


@pytest.mark.parametrize("kind", K.FAMILY_KINDS)
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
    # and exponent, but claims no closed-form core (no pure radius)
    base = K.with_tabulated_sampler(K.RadialKernel(
        dim=1, p_exp=2.0,
        profile=lambda r: np.where(r <= 1.0, 1.25 * np.power(r, -0.5), 0.0),
        support_radius=1.0, breakpoints=(1.0,), origin_exponent=0.5,
        origin_coefficient=1.25))
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


# one kernel of every family; the sampler tests read each through its
# inverse CDF and check it against its own density
SAMPLED = [
    lambda: K.make_stable(1, 2.0, 0.1),
    lambda: K.make_truncated_power(2, 2.0, 1.0, 0.3),
    lambda: K.make_log_limit(1, 1.0, 0.05, 0.5),
    lambda: K.make_smoothed_power(1, 2.0, -0.5, 0.1, 0.5),
    lambda: K.KernelFamily("rescaled", 1, 2.0).kernel(0.1),
]


def test_cdf_axioms():
    smoothed_d2 = lambda: K.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5)
    v = np.concatenate((np.linspace(0.0, 1.0, 41), [1.0 - 1e-6, 1.0 - 1e-9]))
    v.sort()
    for make in (*SAMPLED, smoothed_d2):
        kern = make()
        # closed forms invert to rounding, tables to their interpolation
        tol = 1e-7 if kern.family_tag == "smoothed_power" else 1e-12
        r = kern.radial_cdf_inv(v)
        assert np.all(np.diff(r) >= 0.0)
        assert r[0] >= kern.inner_radius and r[-1] <= kern.support_radius
        # the mass below each drawn radius is the probability that drew it,
        # up to v = 1 (r ~ 1e157 for the stable kernel)
        mass = np.array([K.radial_integral(kern, 0.0, float(x),
                                           abs_tol=1e-13) for x in r])
        assert np.max(np.abs(mass - v)) <= tol, kern.family_tag


def test_sampler_matches_tail_mass():
    kern = K.make_stable(1, 2.0, 0.1)
    n = 1_000_000
    h, _ = K.sample_offset_with_radii(kern, RNG(11), n)
    assert np.all(np.isfinite(h))
    for delta in (0.1, 0.5, 1.0):
        frac = float((np.abs(h[:, 0]) > delta).mean())
        target = K.mass_outside(kern, delta)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(frac - target) <= 4.0 * se


def test_sampler_respects_support():
    kern = K.make_truncated_power(2, 2.0, 1.0, 0.3)
    h, _ = K.sample_offset_with_radii(kern, RNG(4), 100_000)
    assert np.linalg.norm(h, axis=1).max() <= 0.3 + 1e-12


def _box_kernel(radius):
    # unit (1 ^ r^2)-mass constant profile on the ball of the given radius
    c = 1.5 / radius ** 3
    return K.RadialKernel(dim=1, p_exp=2.0,
                          profile=lambda r: np.where(r <= radius, c, 0.0),
                          support_radius=radius, breakpoints=(radius,))


def test_custom_kernels_sample_their_own_law():
    # kernels built and dropped in a row: each must be sampled through its
    # own table, never another kernel's
    for i in range(200):
        radius = 0.05 + 0.0045 * i
        kern = K.with_tabulated_sampler(_box_kernel(radius))
        _, radii = K.sample_offset_with_radii(kern, RNG(i), 1000)
        assert radii.max() <= radius * (1.0 + 1e-12), i


def test_tabulated_sampler_draws_are_pinned():
    # radii drawn through the tabulated inverse CDF, pinned bit for bit
    kern = K.with_tabulated_sampler(_box_kernel(0.3))
    _, radii = K.sample_offset_with_radii(kern, RNG(5), 6)
    pinned = ["0x1.151424dfa637ap-2", "0x1.01bb128d5ef7dp-2",
              "0x1.6beb866b1c849p-3", "0x1.d47e9007ee74dp-3",
              "0x1.8287c760b5a05p-3", "0x1.0dd26145cb067p-2"]
    assert [float(r).hex() for r in radii] == pinned


# tables for the monotone cubic: strictly increasing x, evenly jittered or
# geometric, and y built from steps that may be flat or change sign
_gaps = st.floats(1e-3, 10.0)
_steps = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def _tables(draw, monotone=False):
    n = draw(st.integers(2, 64))
    if draw(st.booleans()):
        lo = draw(st.floats(1e-12, 1.0))
        x = np.geomspace(lo, lo * draw(st.floats(2.0, 1e12)), n)
    else:
        x = np.cumsum([draw(_gaps) for _ in range(n)])
    steps = np.array([draw(_steps) for _ in range(n - 1)])
    if monotone:
        steps = np.abs(steps)
    y = np.concatenate(([draw(st.floats(-10.0, 10.0))], steps)).cumsum()
    return x, y, draw(st.integers(0, 2 ** 32 - 1))


def _probe_points(x, seed):
    inner = np.random.default_rng(seed).uniform(x[0], x[-1], 2000)
    return np.concatenate((x, inner, [x[0], x[-1]]))


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(_tables())
def test_monotone_cubic_matches_scipy_pchip_bit_for_bit(table):
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y, seed = table
    v = _probe_points(x, seed)
    want = interpolate.PchipInterpolator(x, y, extrapolate=False)(v)
    assert np.array_equal(K._monotone_cubic(x, y)(v), want)


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(_tables(monotone=True))
def test_monotone_cubic_keeps_monotone_data_monotone(table):
    x, y, seed = table
    v = np.sort(_probe_points(x, seed))
    vals = K._monotone_cubic(x, y)(v)
    # exact in exact arithmetic; evaluating the cubic rounds a few ulps
    ulps = 4.0 * np.spacing(np.abs(y).max())
    assert np.all(np.diff(vals) >= -ulps)
    assert vals.min() >= y[0] - ulps and vals.max() <= y[-1] + ulps


def test_guide_table_locates_the_segments_of_a_binary_search():
    # the smoothed-power CDF table crowds most of its nodes into the first
    # bucket; probe every node, both ends, every bucket edge and its
    # neighbours, and a million uniform values
    x, _ = K._cdf_table(K.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5))
    nb = K._GUIDE_BUCKETS
    edges = x[0] + np.arange(nb + 1) * ((x[-1] - x[0]) / nb)
    v = np.concatenate((x, [x[0], x[-1]], edges,
                        np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf),
                        RNG(4).uniform(x[0], x[-1], 1_000_000)))
    want = np.minimum(np.searchsorted(x, v, side="right") - 1, x.size - 2)
    assert np.array_equal(K._locator(x)(v), want)


def test_sampling_needs_sampling_data():
    kern = _box_kernel(0.5)
    with pytest.raises(K.KernelError, match="with_tabulated_sampler"):
        K.sample_offset_with_radii(kern, RNG(1), 10)
    tabulated = K.with_tabulated_sampler(kern)
    assert tabulated.profile is kern.profile
    # the table's inverse reaches the support edge, to rounding
    top = float(tabulated.radial_cdf_inv(np.array([1.0]))[0])
    assert 0.5 - 1e-15 <= top <= 0.5


def _mass_below(kern, radii, block=1 << 17):
    """The weighted mass below each of the sorted radii: one adaptive
    integral up to the first, then a 12-point Gauss panel between each
    pair of neighbours, in blocks of panels to bound the memory."""
    lo, hi = radii[:-1], radii[1:]
    segs = np.concatenate([
        fixed_gauss(kern.weighted_radial_density, lo[i:i + block],
                    hi[i:i + block], n=12)
        for i in range(0, lo.size, block)])
    first = K.radial_integral(kern, 0.0, float(radii[0]),
                              abs_tol=K.NORMALIZATION_REQUEST_TOL)
    return first + np.concatenate(([0.0], np.cumsum(segs)))


@pytest.mark.parametrize("make", SAMPLED)
def test_sampler_ks_distance(make):
    kern = make()
    _, radii = K.sample_offset_with_radii(kern, RNG(23), 1_000_000)
    radii = np.sort(radii)
    cdf = _mass_below(kern, radii)
    n = radii.size
    grid_hi = np.arange(1, n + 1) / n
    ks = max(float(np.max(np.abs(cdf - grid_hi))),
             float(np.max(np.abs(cdf - (grid_hi - 1.0 / n)))))
    assert ks <= 0.005


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
        lambda: F._power_window_kernel(1, 2.0, 3.0, cutoff=0.1, top=0.5),
        lambda r: np.where((r > 0.1) & (r <= 0.5), r ** -3.0, 0.0),
        (0.05, 0.1, 0.3, 0.5, 0.6)),
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
    # the in-place inverse branches, norms and scaling give the same bits
    # as the whole-array forms
    h, radii = K.sample_offset_with_radii(K.make_stable(dim, 2.0, 0.3),
                                          RNG(12), 300_000)
    want_h, want_radii = _reference_offsets(dim, 2.0, 0.3, RNG(12), 300_000)
    assert np.array_equal(radii, want_radii)
    assert np.array_equal(h, want_h)


def test_stable_inverse_cdf_edges_and_scalars():
    kern = K.make_stable(2, 2.0, 0.3)
    v = np.array([0.0, 0.85, 1.0, -0.5, 1.5, 0.25, 0.99])
    want = _stable_inverse_both_branches(v, 2.0, 0.3)
    assert np.array_equal(kern.radial_cdf_inv(v), want)
    assert [float(kern.radial_cdf_inv(x)) for x in v] == list(want)
