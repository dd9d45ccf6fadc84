import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plevylab import functionals as F
from plevylab import kernels as K
from plevylab import quadrature
from plevylab import sweep as S
from plevylab.constants import kdp_mean, sphere_area
from plevylab.fields import (LIPSCHITZ, BallIndicator, Field, FieldError,
                             Gaussian, Linear, SignJump, SmoothBump, Tent,
                             sobolev_norm_p)
from plevylab.geometry import (_ROW_BLOCK, Ball, Box, IntervalUnion,
                               SlitBall, interval, slit_interval)
from plevylab.quadrature import (QuadratureError, integrate,
                                 integrate_many)

UNIT = interval(0.0, 1.0)
SYM = interval(-1.0, 1.0)
LINEAR = Linear((1.0,))

DET = F.MODE_DET
MC = F.MODE_MC


def linear_energy_closed(eps):
    # double integral of |x-y|^2 against the stable kernel on (0,1)^2
    return (2.0 - eps) / (2.0 * (1.0 + eps))


def jump_energy_closed(eps):
    # cross-interface integral of the unit jump, p = 1
    return 2.0 - 2.0 ** eps


# ---------------------------------------------------------------------------
# deterministic oracle values


@pytest.mark.parametrize("eps", [0.4, 0.1, 0.02])
def test_det_energy_linear(eps):
    est = F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, eps), mode=DET)
    assert est.stderr == 0.0
    assert abs(est.value - linear_energy_closed(eps)) < 1e-8


@pytest.mark.parametrize("eps", [0.4, 0.1, 0.02])
def test_det_energy_sign_jump(eps):
    est = F.energy(SignJump(1), SYM, K.make_stable(1, 1.0, eps), mode=DET)
    assert abs(est.value - jump_energy_closed(eps)) < 1e-8


@pytest.mark.parametrize("eps", [0.01, 0.005, 0.001])
def test_det_energies_below_the_grid_match_their_closed_forms(eps):
    # the jump raised "power map ... collapses" at eps = 0.005 and 0.001,
    # and the nested oracle missed the linear form by about 3e-11
    lin = F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, eps), mode=DET)
    assert type(lin.value) is float
    closed = linear_energy_closed(eps)
    assert abs(lin.value - closed) <= 1e-12 * closed
    jump = F.energy(SignJump(1), SYM, K.make_stable(1, 1.0, eps), mode=DET)
    closed = jump_energy_closed(eps)
    assert abs(jump.value - closed) <= 1e-12 * closed


def test_det_energy_slit_matches_full_interval():
    # removing the measure-zero slit does not change the integral, while
    # the gradient target collapses to zero: the counterexample
    est = F.energy(SignJump(1), slit_interval(), K.make_stable(1, 1.0, 0.2),
                   mode=DET)
    assert abs(est.value - jump_energy_closed(0.2)) < 1e-8


def test_constant_field_energy_zero():
    const = Linear((0.0,), 3.0)
    est = F.energy(const, UNIT, K.make_stable(1, 2.0, 0.1), mode=DET)
    assert est.value == 0.0
    est = F.energy(const, UNIT, K.make_stable(1, 2.0, 0.1), mode=MC,
                   n=10_000, seed=1)
    assert est.value == 0.0


def test_sign_jump_p2_energy_diverges():
    with pytest.raises(QuadratureError):
        F.energy(SignJump(1), SYM, K.make_stable(1, 2.0, 0.2), mode=DET)


def test_oracle_value_does_not_depend_on_pair_grouping():
    # the default complement of (0, 1) is two partner intervals, each at
    # half the error budget of the whole
    kern = K.make_stable(1, 2.0, 0.2)
    whole = F.cross_energy(Tent(1), UNIT, kern, mode=DET).value
    left, right = (F.cross_energy(Tent(1), UNIT, kern, other=other,
                                  mode=DET, abs_tol=5e-11).value
                   for other in (IntervalUnion(((-math.inf, 0.0),)),
                                 IntervalUnion(((1.0, math.inf),))))
    assert whole == left + right
    # the slit interval has three pairs, the mixed one counted twice; each
    # pair keeps its own budget
    kern = K.make_stable(1, 1.0, 0.2)
    slit = slit_interval()
    lo, hi = slit.intervals
    single = [F._pair_energy(SignJump(1), kern, x_iv, y_iv, 1e-10 / 3)
              for x_iv, y_iv in ((lo, lo), (lo, hi), (hi, hi))]
    full = F.energy(SignJump(1), slit, kern, mode=DET).value
    assert full == 1.0 * single[0] + 2.0 * single[1] + 1.0 * single[2]


# Gaussian energies under make_stable(1, p, eps), nu = c r^(eps-1-p) with
# c = eps (p - eps) / (2 p): int_0^inf nu(r) F(r) dr with F(r) = 2 int
# |u(x+r) - u(x)|^p dx over x, x + r in the domain, evaluated with mpmath
# at 25 to 60 digits.  For p = 2 on (-1, 1), F(r) = 4 (G(r-1, 1) -
# exp(-r^2/2) G(r/2-1, 1-r/2)) with G(a, b) = int_a^b exp(-2t^2) dt in erf
# form; otherwise nested tanh-sinh quadrature of the difference formed as
# exp(-x^2) expm1(-(2xr + r^2)), split at its sign change x = -r/2 for
# p = 1.  Two independent evaluations of each value agree to 5e-13.  The
# linear row is the closed form (2 - eps) / (2 (1 + eps)) = 4/7.
_SMOOTH_REFERENCES = {
    "gaussian-sym-p1": (Gaussian(1), SYM, 1.0, 0.4, 0.62912680261772509,
                        1e-11),
    "gaussian-sym-p2": (Gaussian(1), SYM, 2.0, 0.4, 0.57912250568227782,
                        1e-11),
    "gaussian-half-line-p2": (Gaussian(1), IntervalUnion(((0.0, math.inf),)),
                              2.0, 0.5, 0.577353663509037, 1e-10),
    "linear-unit-p2": (LINEAR, UNIT, 2.0, 0.4, linear_energy_closed(0.4),
                       1e-15),
}


@pytest.mark.parametrize("case", sorted(_SMOOTH_REFERENCES))
def test_smooth_energies_match_high_precision_references(case):
    # the nested oracle read the half-line energy 3.7e-6 low (0.57735155),
    # the p = 1 value 5.1e-9 off and the linear one 2.8e-11 off
    field, domain, p, eps, ref, rel = _SMOOTH_REFERENCES[case]
    est = F.energy(field, domain, K.make_stable(1, p, eps), mode=DET)
    assert abs(est.value - ref) <= rel * ref


def test_one_sided_ranges_are_read_from_their_finite_end():
    # mirror images: the Gaussian's energy on (-inf, 0) is the one on
    # (0, inf); read from the far end of its tail map it lost 6.5e-6
    kern = K.make_stable(1, 2.0, 0.5)
    left, right = (F.energy(Gaussian(1), IntervalUnion((iv,)), kern,
                            mode=DET).value
                   for iv in ((-math.inf, 0.0), (0.0, math.inf)))
    assert left == right
    # the indicator of (-0.5, 0.5) on R \ {-0.5}: pairs across the removed
    # point count, so both jumps do, 2 at every eps
    punctured = IntervalUnion(((-math.inf, -0.5), (-0.5, math.inf)))
    for eps in (0.4, 0.02):
        value = F.energy(BallIndicator(1, 0.5), punctured,
                         K.make_stable(1, 1.0, eps), mode=DET).value
        assert abs(value - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# jump fields


def _touching_pair_energy(a, b, eps):
    """Energy of touching phase pieces of lengths a and b, unit jump, under
    ``make_stable(1, 1.0, eps)``: with nu = (eps (1 - eps) / 2) r^(eps - 2),
    whose second antiderivative is -r^eps / 2, and A'' = delta_0 - delta_a
    - delta_b + delta_(a+b), it is (a^eps + b^eps - (a + b)^eps) / 2."""
    return (a ** eps + b ** eps - (a + b) ** eps) / 2.0


@pytest.mark.parametrize("eps", K.DEFAULT_EPS_GRID)
def test_jump_energies_match_their_closed_forms(eps):
    kern = K.make_stable(1, 1.0, eps)
    assert 2.0 * _touching_pair_energy(1.0, 1.0, eps) \
        == jump_energy_closed(eps)
    for domain in (SYM, slit_interval()):
        value = F.energy(SignJump(1), domain, kern, mode=DET).value
        assert abs(value - jump_energy_closed(eps)) <= 2e-15
    # (-0.5, 0.5) against (-1, 1): two pairs of lengths 0.5 and 1
    local = F.local_measure(SignJump(1), SYM, interval(-0.5, 0.5), kern,
                            mode=DET).value
    closed = 2.0 * _touching_pair_energy(0.5, 1.0, eps)
    assert abs(local - closed) <= 3e-15 * closed


def test_jump_profile_is_the_jump_times_the_covariogram():
    # (-1, 0) against (0, 1.5): A(r) = |X ^ (Y - r)| + |X ^ (Y + r)| =
    # min(r, 1, 1.5, 2.5 - r)^+, times |du|^p = 3^p for the scaled jump
    field = SignJump(1).scaled(3.0)
    r = np.array([1e-9, 0.25, 0.999, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0])
    cover = np.maximum(np.minimum(np.minimum(r, 1.0), 2.5 - r), 0.0)
    for p in (1.0, 2.0):
        profile = F._pair_profile(field, p, (-1.0, 0.0), (0.0, 1.5),
                                  np.array([0.0]))
        assert np.allclose(profile(r), 3.0 ** p * cover, rtol=1e-15,
                           atol=0.0)


def test_origin_order_decides_divergence_before_any_quadrature(monkeypatch):
    # nu = r^-3 on (0, 1], p = 2: F ~ r^2 on an overlap diverges, F = r^3
    # at a continuous contact gives int_0^1 r^-3 r^3 dr = 1
    kern = K.RadialKernel(
        dim=1, p_exp=2.0,
        profile=lambda r: np.where(r <= 1.0, np.power(r, -3.0), 0.0),
        support_radius=1.0, breakpoints=(1.0,), origin_exponent=3.0)
    calls = []
    hook = Linear._offset_diff

    def counted(self, pts, off):
        calls.append(len(pts))
        return hook(self, pts, off)

    monkeypatch.setattr(Linear, "_offset_diff", counted)
    with pytest.raises(QuadratureError, match="diverges on the diagonal"):
        F.energy(LINEAR, UNIT, kern, mode=DET)
    assert calls == []
    value = F.cross_energy(LINEAR, UNIT, kern, other=interval(1.0, 2.0),
                           mode=DET).value
    assert abs(value - 1.0) <= 1e-10


def test_linear_energy_takes_at_most_three_x_integral_batches(monkeypatch):
    # the core fit at r_c / 4, r_c / 2 and r_c is one batch of
    # x-integrals; the r range (r_c, 1), r_c = 2^-14, starts on its 14
    # octave panels r_c 2^k, all of them in one integrand call, and
    # converges without a bisection.  Halving toward r_c one octave at a
    # time took 14 batches (17 with the former core radius 2^-17)
    sizes = []

    def counted(f, a, *args, **kwargs):
        sizes.append(len(a))
        return integrate_many(f, a, *args, **kwargs)

    monkeypatch.setattr(F, "integrate_many", counted)
    est = F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, 0.4), mode=DET)
    assert abs(est.value - linear_energy_closed(0.4)) <= 1e-15
    assert len(sizes) <= 3
    assert sizes[:2] == [3, 14 * 30]


def test_scaled_shifted_jump_energy_is_two():
    # du = 2 across the jump, and F(r) = 4r below the truncated kernel's
    # radius, where its unit mass is 2 int r nu(r) dr = 1: the energy is
    # 2 * 1.  The closed-form core and the radial integral above it add up
    # to 2 within an ulp or two
    field = SignJump(1).scaled(-2.0).shifted(0.5)
    kern = K.make_truncated_power(1, 1.0, 0.0, 0.1)
    assert abs(F.energy(field, SYM, kern, mode=DET).value - 2.0) <= 2e-15


def test_jump_pieces_unbounded_on_opposite_sides_raise(monkeypatch):
    # (-inf, 0) against (0, inf) has F(r) = |du| r: finite under a kernel of
    # finite support, |du| int_0^0.1 nu(r) r dr = 1/2, and infinite under
    # the stable kernel, whose mass int nu(r) r dr diverges at infinity
    half = IntervalUnion(((-math.inf, 0.0),))
    kern = K.make_truncated_power(1, 1.0, 0.0, 0.1)
    value = F.cross_energy(SignJump(1), half, kern, mode=DET).value
    assert abs(value - 0.5) <= 1e-15
    # the divergence is decided before any field value is read (the
    # quadrature stalled after 4096 panels and about 1.3 s)
    calls = []
    for name in ("_eval", "_offset_diff"):
        hook = getattr(SignJump, name)

        def counted(self, *args, hook=hook):
            calls.append(len(args[0]))
            return hook(self, *args)

        monkeypatch.setattr(SignJump, name, counted)
    with pytest.raises(QuadratureError, match=r"in x piece \(-inf, 0\) "
                       r"against partner interval \(0, inf\)"):
        F.cross_energy(SignJump(1), half, K.make_stable(1, 1.0, 0.1),
                       mode=DET)
    assert calls == []
    # an x-range infinite at both ends is not integrated yet
    line = IntervalUnion(((-math.inf, math.inf),))
    with pytest.raises(QuadratureError, match=r"in x piece \(-inf, inf\)"):
        F.energy(SignJump(1), line, kern, mode=DET)


def _interior_point(lo, hi):
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    return lo + 0.5 if math.isfinite(lo) else hi - 0.5


def _pieces_at(intervals, jumps):
    out = []
    for lo, hi in intervals:
        ends = [lo, *sorted(j for j in jumps if lo < j < hi), hi]
        out += zip(ends[:-1], ends[1:])
    return out


def _nested_jump_reference(field, kernel, gamma, x_ivs, y_ivs):
    """Pair energy of a jump field by x-quadrature of the kernel's radial
    mass between the partner ends, read off the power law c r^-gamma that
    every kernel used here is on its annulus.  A piece touching its partner
    gets the substitution ``t = u^(1/alpha)``, ``alpha = 2 - gamma``, for
    the singularity M(x) ~ |x - e|^(1 - gamma) at that end, mirrored to
    the left end of the range and shifted to 0; it is written here, so the
    reference does not share the package's closed-form core."""
    r_in, r_out = kernel.inner_radius, kernel.support_radius
    r0 = 0.5 * (r_in + min(r_out, 1.0))
    c = math.exp(float(kernel.log_density(r0)) + gamma * math.log(r0))

    def mass(lo, hi):
        a, b = np.maximum(lo, r_in), np.minimum(hi, r_out)
        return np.where(b > a, c * (a ** (1.0 - gamma) - b ** (1.0 - gamma))
                        / (gamma - 1.0), 0.0)

    total = 0.0
    jumps = field.jump_points
    for xp in _pieces_at(x_ivs, jumps):
        for yp in _pieces_at(y_ivs, jumps):
            du = abs(float(field.eval([[_interior_point(*yp)]])[0])
                     - float(field.eval([[_interior_point(*xp)]])[0]))
            if du == 0.0:
                continue
            (ax, bx), (ay, by) = xp, yp
            if ay >= bx:
                (ax, bx), (ay, by) = (-bx, -ax), (-by, -ay)
            # t = x - ax: the distances to the partner ends are t + gap
            # and t + (ax - ay), the first exactly t where the pieces touch
            gap = ax - by
            assert gap >= 0.0

            def f(t, gap=gap, span=ax - ay):
                return mass(t + gap, t + span)

            pts = [e + r - ax for e in (ay, by) for r in (r_in, r_out)
                   if ax < e + r < bx]
            span, integrand = bx - ax, f
            if gap == 0.0 and r_in == 0.0:
                # M ~ t^(alpha - 1) at t = 0: substitute t = u^(1/alpha)
                alpha = 2.0 - gamma

                def mapped(u, m=f, inv=1.0 / alpha):
                    return m(u ** inv) * inv * u ** (inv - 1.0)

                span, integrand = span ** alpha, mapped
                pts = [t ** alpha for t in pts]
            val, _ = integrate(integrand, 0.0, span, points=pts,
                               abs_tol=1e-14)
            total += du ** kernel.p_exp * val
    return total


@st.composite
def _jump_layouts(draw):
    # ends on a grid of quarters, so that they meet the jumps at 0 and
    # +-0.5 as often as they miss them
    k = draw(st.sampled_from((2, 4)))
    ends = sorted(draw(st.lists(st.sampled_from(range(-6, 7)), min_size=k,
                                max_size=k, unique=True)))
    return IntervalUnion(tuple((a / 4.0, b / 4.0)
                               for a, b in zip(ends[::2], ends[1::2])))


_JUMP_FIELDS = (SignJump(1), BallIndicator(1, 0.5), SignJump(1).scaled(-1.5),
                BallIndicator(1, 0.75, 2.0, -1.0).shifted(0.3))
# each with the exponent gamma of its power law c r^-gamma
_JUMP_KERNELS = ((K.make_stable(1, 1.0, 0.3), 1.7),
                 (K.make_truncated_power(1, 2.0, 0.5, 0.3), 1.5),
                 (K.make_log_limit(1, 2.0, 0.05, 0.5), 3.0))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_jump_layouts(), st.sampled_from(("energy", "cross")))
def test_jump_route_matches_a_nested_reference(domain, kind):
    # every field against every kernel on each layout
    for field in _JUMP_FIELDS:
        for kern, gamma in _JUMP_KERNELS:
            if kind == "energy":
                value = F.energy(field, domain, kern, mode=DET).value
                partners = domain.intervals
            else:
                value = F.cross_energy(field, domain, kern, mode=DET).value
                partners = domain.complement_pieces()
            ref = _nested_jump_reference(field, kern, gamma,
                                         domain.intervals, partners)
            assert abs(value - ref) <= 1e-9 * abs(ref), (field, kern, value,
                                                         ref)


@pytest.mark.parametrize("p, d", [(1.0, 1), (2.0, 1), (1.0, 2)])
def test_mc_refuses_jump_fields(p, d):
    domain = SYM if d == 1 else SlitBall(1.0, 2)
    with pytest.raises(F.EnergyError, match="heavy-tailed") as info:
        F.energy(SignJump(d), domain, K.make_stable(d, p, 0.1), mode=MC,
                 n=1000, seed=1)
    assert ("deterministic-1d" in str(info.value)) == (d == 1)


def test_jump_estimate_memory_is_bounded():
    # the nested oracle fed one inner batch of about 8,000 panels to an
    # outer round of the sign jump at eps = 0.4, at a peak of 13.3 MB (2.9
    # MB once it skipped the exact-zero panels); the covariogram route
    # peaked at about 11 kB, the x-first route at about 0.34 MB
    kernel = K.make_stable(1, 1.0, 0.4)
    tracemalloc.start()
    try:
        est = F.energy(SignJump(1), SYM, kernel, mode=DET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(est.value - jump_energy_closed(0.4)) < 1e-8
    assert peak <= 16e6, peak


def _log_window_closed(eps):
    big = abs(math.log(eps))
    return 2.0 * (big - 1.0 + eps) / big


def _cross_tent_closed(p):
    return lambda eps: eps / (p * (1.0 + eps))


# every deterministic energy case of the built-in suite, as a function of
# its grid parameter
_SUITE_CLOSED_FORMS = {
    "w1p-linear-det": linear_energy_closed,
    "cross-tent-p1": _cross_tent_closed(1.0),
    "cross-tent-p2": _cross_tent_closed(2.0),
    "bv-signjump": jump_energy_closed,
    "counterexample-energy": jump_energy_closed,
    "local-linear": lambda eps: linear_energy_closed(eps)
    * (0.75 ** (1.0 + eps) - 0.25 ** (1.0 + eps)),
    "local-bv-signjump": lambda eps: 1.0 + 0.5 ** eps - 1.5 ** eps,
    "frac-s-to-1": lambda s: 1.0 - 2.0 * (1.0 - s) / (3.0 - 2.0 * s),
    "frac-small-ball": lambda eps: 2.0 - eps,
    "frac-log-window": _log_window_closed,
    "constant-zero": lambda eps: 0.0,
    "counterexample-frac-divergent":
        lambda t: 2.0 * math.log(1.0 / t) + 2.0 * (1.0 - math.log(2.0)),
    "counterexample-frac-regular":
        lambda t: 2.0 * (8.0 - 4.0 * math.sqrt(2.0) - 2.0 * math.sqrt(t)),
}


def test_deterministic_suite_rows_match_their_closed_forms():
    """Every grid row of the deterministic energy cases lies within 1e-11
    of its closed form (the nested oracle missed cross-tent-p1 by about
    1e-9).

    The cross-tent forms: for the tent u = max(0, 1 - |x|) on (0, 1)
    against its complement, the partner (1, inf) gives ``F_R(r) = int
    (1 - x)^p dx`` over ``x > 1 - r``, that is ``min(r, 1)^(p+1) / (p+1)``.
    The partner (-inf, 0) gives the same: for r <= 1, ``|u(y+r) - u(y)| =
    |2y + r|`` on y in (-r, 0), whose p-th power integrates to ``r^(p+1) /
    (p+1)``; for 1 < r < 2 the pieces y < -1 and y > -1 add ``(1 - (2 -
    r)^(p+1)) / (p+1)`` and ``(2 - r)^(p+1) / (p+1)``; for r >= 2 all of
    (-r, 1 - r) lies where u(y) = 0, leaving ``int_0^1 (1 - s)^p ds``.  So
    ``F(r) = 2 min(r, 1)^(p+1) / (p+1)``, and with the stable density
    ``nu = c r^(eps-1-p)``, ``c = eps (p - eps) / (2 p)``::

        E = 2c / (p+1) * (1 / (1 + eps) + 1 / (p - eps))
          = eps / (p (1 + eps)),

    ``eps / (1 + eps)`` at p = 1 and ``eps / (2 (1 + eps))`` at p = 2.
    """
    cases = [c for c in S.builtin_suite(seed=42)
             if c.case_id in _SUITE_CLOSED_FORMS]
    assert len(cases) == len(_SUITE_CLOSED_FORMS)
    for case in cases:
        closed = _SUITE_CLOSED_FORMS[case.case_id]
        for row in S.run_sweep(case).rows:
            assert abs(row.value - closed(row.eps)) <= 1e-11, \
                (case.case_id, row.eps, row.value)


# perfbench ``suite`` rows.  All six were re-pinned when the nested oracle
# and the covariogram route gave way to the x-first route; each row's
# closed form is checked by test_deterministic_suite_rows_match_their_
# closed_forms.  Relative distance to it, old -> new:
#   bv-signjump            ...5c697588d5928p-1 (0)       -> ...926 (-3.3e-16)
#   local-bv-signjump      ...29def8a4a846bp-1 (1.9e-16) -> ...46a (0)
#   counterexample-energy  ...5c697588d5928p-1 (0)       -> ...926 (-3.3e-16)
#   cross-tent-p1          ...4141412aad901p-6 (-4.2e-9) -> ...145038 (2.7e-12)
#   cross-tent-p2          ...414141434dbecp-7 (3.8e-10) -> ...2787e0 (2.3e-10)
#   w1p-linear-det         ...24924924b5319p-1 (2.8e-11) -> ...492493 (0)
# Five were re-pinned again when the r-integrals started on octave panels
# ``lo 2^k`` (local-bv-signjump kept its bits), old -> new:
#   bv-signjump            ...d5926p-1 (-3.3e-16) -> ...d5927p-1 (-1.6e-16)
#   counterexample-energy  ...d5926p-1 (-3.3e-16) -> ...d5927p-1 (-1.6e-16)
#   cross-tent-p1          ...45038p-6 (2.7e-12)  -> ...41414p-6 (0)
#   cross-tent-p2          ...787e0p-7 (2.3e-10)  -> ...736e1p-7 (2.2e-10)
#   w1p-linear-det         ...92493p-1 (0)        -> ...92494p-1 (1.9e-16)
# Three moved when the pair energy's closed-form core became
# kernels.core_integral (radius 2^-14, a quadratic fit), old -> new:
#   bv-signjump            ...d5927p-1 (-1.6e-16) -> ...d5926p-1 (-3.3e-16)
#   counterexample-energy  ...d5927p-1 (-1.6e-16) -> ...d5926p-1 (-3.3e-16)
#   cross-tent-p2          ...736e1p-7 (2.2e-10)  -> ...736e2p-7 (2.2e-10)
_SUITE_BITS = {
    "bv-signjump@0.4": (
        lambda: F.energy(SignJump(1), SYM, K.make_stable(1, 1.0, 0.4),
                         mode=DET), "0x1.5c697588d5926p-1"),
    "local-bv-signjump@0.4": (
        lambda: F.local_measure(SignJump(1), SYM, interval(-0.5, 0.5),
                                K.make_stable(1, 1.0, 0.4), mode=DET),
        "0x1.29def8a4a846ap-1"),
    "counterexample-energy@0.4": (
        lambda: F.energy(SignJump(1), slit_interval(),
                         K.make_stable(1, 1.0, 0.4), mode=DET),
        "0x1.5c697588d5926p-1"),
    "cross-tent-p1@0.02": (
        lambda: F.cross_energy(Tent(1), UNIT, K.make_stable(1, 1.0, 0.02),
                               mode=DET), "0x1.4141414141414p-6"),
    "cross-tent-p2@0.02": (
        lambda: F.cross_energy(Tent(1), UNIT, K.make_stable(1, 2.0, 0.02),
                               mode=DET), "0x1.41414142736e2p-7"),
    "w1p-linear-det@0.4": (
        lambda: F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, 0.4), mode=DET),
        "0x1.2492492492494p-1"),
}


@pytest.mark.parametrize("row", sorted(_SUITE_BITS))
def test_oracle_suite_rows_are_bit_pinned(row):
    run, value = _SUITE_BITS[row]
    assert run().value.hex() == value


def _plateau_kernel():
    """p = 2 kernel whose log density is +inf on r < 0.1 and -3 log r up
    to 1: exp(p log 0 + log nu) is NaN below 0.1, not 0."""

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 0.1, np.inf, -3.0 * np.log(r))

    return K.RadialKernel(dim=1, p_exp=2.0, log_profile=log_profile,
                          support_radius=1.0, breakpoints=(0.1,))


def test_infinite_log_density_keeps_a_constant_field_at_zero():
    # a zero pair profile never reads the density; anything else reads the
    # +inf density and raises, where it was once read as nu = 0 (and the
    # normalization printed 4.60517018598809)
    est = F.energy(Linear((0.0,), 1.0), UNIT, _plateau_kernel(), mode=DET)
    assert est.value == 0.0
    with pytest.raises(K.KernelError, match=r"\+inf at a radius"):
        F.energy(Linear((1.0,)), UNIT, _plateau_kernel(), mode=DET)
    with pytest.raises(K.KernelError, match=r"\+inf at a radius"):
        K.normalization(_plateau_kernel())


class _SquareWave(Field):
    """u(x) = sign(sin(3e4 x)): no inner integral converges."""

    dim = 1
    regularity = "smooth"

    def _eval(self, pts):
        return np.sign(np.sin(3e4 * pts[:, 0]))

    def _grad(self, pts):
        return np.zeros_like(pts)

    def spec(self):
        return {"field": "square_wave"}


def test_oracle_stall_names_the_interval_pair():
    with pytest.raises(QuadratureError, match="stalled") as info:
        F.cross_energy(_SquareWave(), UNIT, K.make_stable(1, 2.0, 0.4),
                       other=interval(2.0, 3.0), mode=DET)
    assert "in x piece (0, 1) against partner interval (2, 3)" \
        in str(info.value)
    assert 0 < info.value.achieved < math.inf


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_mc_matches_closed_form():
    for eps in (0.4, 0.02):
        est = F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, eps), mode=MC,
                       n=1_000_000, seed=42)
        assert abs(est.value - linear_energy_closed(eps)) <= 4 * est.stderr


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_mc_matches_closed_form_at_small_eps(eps):
    # the stable radius (v / m1)^(1/eps) underflows to 0.0 for much of the
    # weighted mass; those pairs were scored 0 (eps = 1e-3, n = 1e5 read
    # 0.522 against 0.9985) and now read |grad u(x) . w|
    est = F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, eps), mode=MC,
                   n=400_000, seed=3)
    assert abs(est.value - linear_energy_closed(eps)) <= 4 * est.stderr


def test_mc_at_tiny_eps_weights_every_pair_by_its_slope():
    # at eps = 1e-6 every kept pair weighs |w| = 1, the zero radii included:
    # the estimate reads 1.0 with stderr 0, 1.5e-6 above the closed form
    eps = 1e-6
    est = F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, eps), mode=MC,
                   n=400_000, seed=3)
    assert abs(est.value - linear_energy_closed(eps)) <= 1e-5


class _NoGradient(Field):
    dim = 1
    regularity = LIPSCHITZ

    def _eval(self, pts):
        return pts[:, 0].copy()

    def spec(self):
        return {"field": "no_gradient"}


def test_mc_zero_radius_of_a_field_without_a_gradient_raises():
    with pytest.raises(F.EnergyError, match="gradient of _NoGradient"):
        F.energy(_NoGradient(), UNIT, K.make_stable(1, 2.0, 1e-6), mode=MC,
                 n=1000, seed=3)


def test_mc_matches_det_on_all_families():
    for fam in K.default_families(1, 2.0):
        kern = fam.kernel(0.1)
        det = F.energy(LINEAR, UNIT, kern, mode=DET)
        mc = F.energy(LINEAR, UNIT, kern, mode=MC, n=300_000, seed=9)
        assert abs(mc.value - det.value) <= 4 * mc.stderr, fam.kind


def test_det_custom_kernel_without_origin_hints_terminates():
    # a kernel with no origin exponent sends the inner range from r = 0 to
    # the adaptive rule; the double integral is E|X-Y|^2 = 1/6 for X, Y
    # uniform on [0, 1]
    kern = K.RadialKernel(dim=1, p_exp=2.0,
                          profile=lambda r: np.ones_like(r),
                          support_radius=1.0, breakpoints=(1.0,))
    out = {}

    def run():
        out["value"] = F.energy(LINEAR, UNIT, kern, mode=DET).value

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60.0)
    assert not worker.is_alive(), "deterministic energy did not terminate"
    assert abs(out["value"] - 1.0 / 6.0) < 1e-8


def test_det_custom_kernel_with_only_an_origin_exponent():
    # 0.25 r^-1.5 on (0, 1] claims no closed-form core; the unit jump on
    # (-1, 1) has energy 2 * 2 * 0.25 = 1
    kern = K.RadialKernel(
        dim=1, p_exp=2.0,
        profile=lambda r: np.where(r <= 1.0, 0.25 * np.power(r, -1.5), 0.0),
        support_radius=1.0, breakpoints=(1.0,), origin_exponent=1.5)
    value = F.energy(SignJump(1), SYM, kern, mode=DET).value
    assert abs(value - 1.0) < 1e-9


def test_det_matches_mc_smooth_bump():
    # the oracle reads the bump's exact offset differences down to r = 0
    kern = K.make_truncated_power(1, 2.0, 0.0, 0.1)
    bump = SmoothBump(1, 0.5)
    det = F.energy(bump, SYM, kern, mode=DET, abs_tol=1e-8)
    mc = F.energy(bump, SYM, kern, mode=MC, n=400_000, seed=6)
    assert abs(mc.value - det.value) <= 4 * mc.stderr


def test_mc_seed_determinism():
    kern = K.make_stable(1, 2.0, 0.1)
    a = F.energy(LINEAR, UNIT, kern, mode=MC, n=200_000, seed=3)
    b = F.energy(LINEAR, UNIT, kern, mode=MC, n=200_000, seed=3)
    assert a.value == b.value and a.stderr == b.stderr
    c = F.energy(LINEAR, UNIT, kern, mode=MC, n=200_000, seed=4)
    assert c.value != a.value


def test_seeds_name_one_stream_each_in_0_to_2_pow_64():
    # keys at or above 2^63 went through a float cast: 2^63 and 2^63 + 5
    # read one stream, and -7 (masked to 2^64 - 7) read seed 0's
    kern = K.make_stable(1, 2.0, 0.1)
    for bad in (-7, 1 << 64, 2.0):
        with pytest.raises(F.EnergyError, match="seed must be an integer"):
            F.energy(LINEAR, UNIT, kern, mode=MC, n=100, seed=bad)
    wide = [F._chunk_rng(s, 3, 0).random(2).tolist()
            for s in (1 << 63, (1 << 63) + 5, (1 << 64) - 1)]
    assert len({tuple(w) for w in wide}) == 3
    # a seed below 2^63 keeps its stream
    assert [v.hex() for v in F._chunk_rng((1 << 63) - 1, 3, 0).random(2)] \
        == ["0x1.d3e2918eecf15p-1", "0x1.1c13320713d73p-1"]


_THREAD_CASES = {
    "d1-interval-energy": lambda: F.energy(
        LINEAR, UNIT, K.make_stable(1, 2.0, 0.1), mode=MC, n=600_000,
        seed=5),
    "d3-slit-ball-energy": lambda: F.energy(
        Linear((1.0, 0.0, 0.5)), SlitBall(1.0, 3), K.make_stable(3, 2.0, 0.3),
        mode=MC, n=600_000, seed=6),
    "d2-offcentre-ball-cross": lambda: F.cross_energy(
        Gaussian(2), Ball(0.5, 2, center=(0.4, 0.0)),
        K.make_truncated_power(2, 2.0, 0.0, 0.2), mode=MC, n=600_000,
        seed=7),
    # rejection rounds draw a chunk's radii from its own stream
    "d2-disc-smoothed-energy": lambda: F.energy(
        Gaussian(2), Ball(1.0, 2), K.make_smoothed_power(2, 2.0, -0.5, 0.1,
                                                         0.5),
        mode=MC, n=600_000, seed=8),
}


def test_mc_thread_count_invariance(monkeypatch):
    for case, run in _THREAD_CASES.items():
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("PLEVYLAB_THREADS", threads)
            est = run()
            results.append((est.value, est.stderr))
        assert results[1] == results[0], case
        assert results[2] == results[0], case


# value and stderr as float.hex, recorded from the allocate-per-round
# sampler; n = 300_001 ends in a short chunk
_PINNED_N = 300_001
_PINNED = {
    "d1-interval-energy": (
        lambda: F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, 0.1), mode=MC,
                         n=_PINNED_N, seed=21),
        "0x1.ba162d954d1f8p-1", "0x1.48ae0d209d322p-11"),
    "d1-complement-cross": (
        lambda: F.cross_energy(Tent(1), interval(-1.0, 1.0),
                               K.make_truncated_power(1, 2.0, 0.0, 0.2),
                               mode=MC, n=_PINNED_N, seed=22),
        "0x1.0d43fa23e0ebfp-5", "0x1.770b4d6a5286fp-12"),
    "d2-offcentre-ball-energy": (
        lambda: F.energy(Gaussian(2), Ball(0.5, 2, center=(0.4, 0.0)),
                         K.make_stable(2, 2.0, 0.1), mode=MC, n=_PINNED_N,
                         seed=23),
        "0x1.540db1fd52539p-3", "0x1.5467655a32375p-12"),
    # a jump field: Monte Carlo refuses it (it read 0x1.f076a29919bdap-1
    # +- 0x1.01d70f8dbd72ap-3, a weight with infinite variance)
    "d2-slit-ball-energy": (
        lambda: F.energy(SignJump(2), SlitBall(1.0, 2),
                         K.make_stable(2, 1.0, 0.2), mode=MC, n=_PINNED_N,
                         seed=24),
        None, None),
    "d2-box-cross": (
        lambda: F.cross_energy(Linear((1.0, 0.5)), Box((0.0, 0.0), (1.0, 2.0)),
                               K.make_log_limit(2, 2.0, 0.05, 0.5), mode=MC,
                               n=_PINNED_N, seed=25),
        "0x1.e4c8f2497011ap-3", "0x1.2e8af698fadd9p-10"),
    "d3-ball-local": (
        lambda: F.local_measure(Gaussian(3), Ball(1.0, 3), Ball(0.5, 3),
                                K.make_rescaled(K.make_stable(3, 2.0, 0.5),
                                                0.1),
                                mode=MC, n=_PINNED_N, seed=26),
        "0x1.358550bb9be13p-4", "0x1.282892eb561f8p-13"),
    "d3-slit-ball-energy": (
        lambda: F.energy(Linear((1.0, 0.0, 0.5)), SlitBall(1.0, 3),
                         K.make_stable(3, 2.0, 0.3), mode=MC, n=_PINNED_N,
                         seed=27),
        "0x1.471f25cda99ffp+0", "0x1.76eccc9c79f94p-9"),
    "d3-offcentre-ball-energy": (
        lambda: F.energy(SmoothBump(3, 0.6),
                         Ball(0.75, 3, center=(-0.25, 0.5, 0.1)),
                         K.make_truncated_power(3, 2.0, 0.0, 0.1), mode=MC,
                         n=_PINNED_N, seed=28),
        "0x1.cc25d5b62f711p-1", "0x1.5156505b2534ep-8"),
    # the smoothed-power radii are drawn by rejection
    "d2-disc-smoothed-energy": (
        lambda: F.energy(Gaussian(2), Ball(1.0, 2),
                         K.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5),
                         mode=MC, n=_PINNED_N, seed=29),
        "0x1.536b39ac0b318p-1", "0x1.5865ee5febb63p-10"),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_mc_estimates_are_bit_pinned(case):
    run, value, stderr = _PINNED[case]
    if value is None:
        with pytest.raises(F.EnergyError, match="piecewise-constant"):
            run()
        return
    est = run()
    assert (est.value.hex(), est.stderr.hex()) == (value, stderr)


def _split_and_whole(draw, n):
    """``draw(gen, lo, hi)`` over consecutive blocks of a chunk stream and
    over the whole range at once, each followed by the next double."""
    split_gen, whole_gen = F._chunk_rng(3, 77, 1), F._chunk_rng(3, 77, 1)
    split = np.concatenate([draw(split_gen, lo, min(lo + _ROW_BLOCK, n))
                            for lo in range(0, n, _ROW_BLOCK)])
    whole = draw(whole_gen, 0, n)
    return (split, split_gen.random()), (whole, whole_gen.random())


@pytest.mark.parametrize("kind", ["random-out", "normal",
                                  "standard-normal-out", "integers"])
def test_chunk_streams_give_the_same_numbers_when_a_draw_is_split(kind):
    # the Monte Carlo chunks and the rejection sampler draw in blocks of
    # _ROW_BLOCK rows and rely on this; integers draws 32-bit halves that do
    # not outlive a call, so only an odd last block is allowed
    n = 2 * _ROW_BLOCK + 5
    buf = np.empty((n, 3))

    def draw(gen, lo, hi):
        if kind == "random-out":
            return gen.random(out=buf[lo:hi]).copy()
        if kind == "normal":
            return gen.normal(size=(hi - lo, 3))
        if kind == "standard-normal-out":
            return gen.standard_normal(out=buf[lo:hi]).copy()
        return gen.integers(0, 2, size=(hi - lo, 1))

    (split, split_next), (whole, whole_next) = _split_and_whole(draw, n)
    assert np.array_equal(split, whole)
    assert split_next == whole_next


def test_one_chunk_estimate_memory_is_bounded(monkeypatch):
    # a d = 3 chunk keeps its points, uniforms and weights; the rest works
    # on blocks of _ROW_BLOCK rows (about 32 MB with whole-chunk temporaries)
    monkeypatch.setenv("PLEVYLAB_THREADS", "1")
    kernel = K.make_stable(3, 2.0, 0.3)
    tracemalloc.start()
    try:
        F.energy(Linear((1.0, 0.0, 0.5)), Ball(1.0, 3), kernel, mode=MC,
                 n=F._CHUNK, seed=31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, peak


def test_energy_scaling_homogeneous():
    kern = K.make_stable(1, 2.0, 0.1)
    base = F.energy(LINEAR, UNIT, kern, mode=DET)
    scaled = F.energy(LINEAR.scaled(3.0), UNIT, kern, mode=DET)
    assert abs(scaled.value - 9.0 * base.value) < 1e-9
    mc_base = F.energy(LINEAR, UNIT, kern, mode=MC, n=100_000, seed=8)
    mc_scaled = F.energy(LINEAR.scaled(3.0), UNIT, kern, mode=MC,
                         n=100_000, seed=8)
    joint = 4.0 * (mc_scaled.stderr + 9.0 * mc_base.stderr)
    assert abs(mc_scaled.value - 9.0 * mc_base.value) <= joint


def test_energy_shift_invariant():
    kern = K.make_stable(1, 2.0, 0.1)
    base = F.energy(LINEAR, UNIT, kern, mode=DET)
    shifted = F.energy(LINEAR.shifted(7.0), UNIT, kern, mode=DET)
    assert abs(shifted.value - base.value) < 1e-9


@st.composite
def _interval_unions(draw):
    k = draw(st.sampled_from((2, 4)))
    ends = sorted(draw(st.lists(st.floats(-1.0, 1.5), min_size=k,
                                max_size=k)))
    assume(min(np.diff(ends)) >= 0.05)
    return IntervalUnion(tuple(zip(ends[::2], ends[1::2])))


@pytest.mark.slow
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_interval_unions(),
       st.sampled_from((Linear((1.0,)), Tent(1), Gaussian(1))),
       st.sampled_from((K.make_stable(1, 2.0, 0.1),
                        K.make_truncated_power(1, 1.0, 0.0, 0.1))))
def test_oracle_symmetries(domain, field, kern):
    # sign flips and constant shifts leave every pair difference's modulus
    # unchanged bit for bit; a factor c scales the energy by |c|^p
    base = F.energy(field, domain, kern, mode=DET).value
    assert F.energy(field.scaled(-1.0), domain, kern, mode=DET).value == base
    assert F.energy(field.shifted(0.75), domain, kern, mode=DET).value \
        == base
    doubled = F.energy(field.scaled(2.0), domain, kern, mode=DET).value
    assert abs(doubled / 2.0 ** kern.p_exp - base) <= 1e-9 * abs(base)


class _PiecewiseLinear(Field):
    """Continuous 1-D field with slope ``slopes[i]`` between consecutive
    ``kinks`` (unbounded end pieces) and u(0) = 0."""

    dim = 1
    regularity = LIPSCHITZ

    def __init__(self, kinks, slopes):
        self.kinks = tuple(kinks)
        self.slopes = np.asarray(slopes, dtype=float)
        self.edges = np.array([-np.inf, *self.kinks, np.inf])

    def _offset_diff(self, pts, off):
        # slope times the overlap of each piece with the segment [x, x+h],
        # in offsets from x: within one piece that overlap is h itself
        h = off[:, 0]
        rel = self.edges[None, :] - pts[:, :1]
        a, b = np.minimum(h, 0.0)[:, None], np.maximum(h, 0.0)[:, None]
        overlap = np.maximum(np.minimum(b, rel[:, 1:])
                             - np.maximum(a, rel[:, :-1]), 0.0)
        return np.sign(h) * (overlap @ self.slopes)

    def _eval(self, pts):
        return self._offset_diff(np.zeros_like(pts), pts)

    def _grad(self, pts):
        piece = np.searchsorted(self.kinks, pts[:, 0], side="right")
        return self.slopes[piece][:, None]

    def spec(self):
        return {"field": "piecewise_linear",
                "kinks": ",".join(map(repr, self.kinks)),
                "slopes": ",".join(map(repr, self.slopes.tolist()))}


@st.composite
def _piecewise_linear_fields(draw):
    kinks = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2,
                                 max_size=4, unique=True)))
    assume(min(np.diff(kinks)) >= 0.02)
    slopes = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(kinks) + 1,
                           max_size=len(kinks) + 1))
    assume(max(abs(s) for s in slopes) >= 0.1)
    return _PiecewiseLinear(kinks, slopes)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(_piecewise_linear_fields())
def test_oracle_matches_mc_on_piecewise_linear_fields(field):
    kern = K.make_stable(1, 2.0, 0.1)
    det = F.energy(field, UNIT, kern, mode=DET)
    mc = F.energy(field, UNIT, kern, mode=MC, n=400_000, seed=17)
    assert abs(mc.value - det.value) <= 4.0 * mc.stderr


@pytest.mark.parametrize("mode", ["det", "bogus", None])
def test_unknown_mode_raises(mode):
    kern = K.make_stable(1, 2.0, 0.1)
    with pytest.raises(F.EnergyError, match="unknown estimator mode"):
        F.energy(LINEAR, UNIT, kern, mode=mode, n=1000)
    with pytest.raises(F.EnergyError, match="unknown estimator mode"):
        F.cross_energy(LINEAR, UNIT, kern, mode=mode, n=1000)
    with pytest.raises(F.EnergyError, match="unknown estimator mode"):
        F.local_measure(LINEAR, UNIT, interval(0.25, 0.75), kern,
                        mode=mode, n=1000)


def test_energy_nonnegative():
    est = F.energy(Gaussian(1), SYM, K.make_stable(1, 2.0, 0.2), mode=MC,
                   n=50_000, seed=2)
    assert est.value >= 0.0


def test_energy_upper_bound_full_space_route():
    # int |u(x+h)-u(x)|^p dx <= 2^p (1 ^ |h|^p) ||u||^p for the tent, so
    # every unit-mass kernel keeps the energy below 2^p ||u||^p
    tent = Tent(1)
    for p in (1.0, 2.0):
        bound = 2.0 ** p * sobolev_norm_p(tent, p)
        for eps in (0.4, 0.1, 0.02):
            est = F.energy(tent, UNIT, K.make_stable(1, p, eps), mode=DET,
                           abs_tol=1e-8)
            assert est.value <= bound


def test_energy_lower_bound_near_limit():
    # deterministic energy at the smallest grid eps reaches at least 90%
    # of the gradient target on extension-domain cases
    cases = [
        (LINEAR, UNIT, 2.0, kdp_mean(1, 2.0) * 1.0),
        (SignJump(1), SYM, 1.0, kdp_mean(1, 1.0) * 1.0),
        (Tent(1), UNIT, 2.0, kdp_mean(1, 2.0) * 1.0),
    ]
    for fld, dom, p, target in cases:
        est = F.energy(fld, dom, K.make_stable(1, p, 0.02), mode=DET,
                       abs_tol=1e-8)
        assert est.value >= 0.9 * target


class _NanAbove(Field):
    """u(x) = x, but NaN on (0.9, 1]."""

    dim = 1
    regularity = "smooth"

    def _eval(self, pts):
        out = pts[:, 0].copy()
        out[pts[:, 0] > 0.9] = np.nan
        return out

    def _grad(self, pts):
        return np.ones_like(pts)

    def spec(self):
        return {"field": "bad"}


def test_nonfinite_field_aborts():
    with pytest.raises(F.EnergyError, match="non-finite"):
        F.energy(_NanAbove(), UNIT, K.make_stable(1, 2.0, 0.2), mode=MC,
                 n=10_000, seed=1)


def test_nonfinite_field_aborts_deterministic():
    # the oracle names the node at once instead of bisecting NaN panels
    # until the quadrature stalls
    with pytest.raises(F.EnergyError, match="non-finite field value near x="):
        F.energy(_NanAbove(), UNIT, K.make_stable(1, 2.0, 0.2), mode=DET)


# ---------------------------------------------------------------------------
# cross-boundary energy


def test_cross_energy_zero_field():
    zero = Linear((0.0,), 0.0)
    est = F.cross_energy(zero, UNIT, K.make_stable(1, 2.0, 0.1), mode=MC,
                         n=20_000, seed=1)
    assert est.value == 0.0


def test_cross_energy_decreases_and_collapses():
    tent = Tent(1)
    for p in (1.0, 2.0):
        vals = [F.cross_energy(tent, UNIT, K.make_stable(1, p, eps),
                               mode=DET, abs_tol=1e-8).value
                for eps in (0.4, 0.2, 0.1, 0.05, 0.02)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05 * sobolev_norm_p(tent, p)


def test_cross_energy_mc_agrees():
    tent = Tent(1)
    kern = K.make_stable(1, 2.0, 0.1)
    det = F.cross_energy(tent, UNIT, kern, mode=DET, abs_tol=1e-8)
    mc = F.cross_energy(tent, UNIT, kern, mode=MC, n=400_000, seed=6)
    assert abs(mc.value - det.value) <= 4 * mc.stderr


def test_pair_set_decomposition():
    # B x B splits into Omega x Omega, rest x rest, and the two mixed
    # rectangles; with u supported inside B the identity is exact
    tent = Tent(1)
    kern = K.make_stable(1, 2.0, 0.1)
    big = interval(-2.0, 2.0)
    rest = IntervalUnion(((-2.0, 0.0), (1.0, 2.0)))
    total = F.energy(tent, big, kern, mode=DET, abs_tol=1e-9).value
    inside = F.energy(tent, UNIT, kern, mode=DET, abs_tol=1e-9).value
    outside = F.energy(tent, rest, kern, mode=DET, abs_tol=1e-9).value
    mixed = F.cross_energy(tent, UNIT, kern, other=rest, mode=DET,
                           abs_tol=1e-9).value
    assert abs(total - (inside + outside + 2.0 * mixed)) < 1e-7


# ---------------------------------------------------------------------------
# localized measure


def test_local_measure_linear():
    sub = interval(0.25, 0.75)
    est = F.local_measure(LINEAR, UNIT, sub, K.make_stable(1, 2.0, 0.02),
                          mode=DET)
    closed = linear_energy_closed(0.02) * (0.75 ** 1.02 - 0.25 ** 1.02)
    assert abs(est.value - closed) < 1e-8
    assert abs(est.value - 0.5) / 0.5 < 0.03


def test_local_measure_bv():
    est = F.local_measure(SignJump(1), SYM, interval(-0.5, 0.5),
                          K.make_stable(1, 1.0, 0.02), mode=DET)
    eps = 0.02
    closed = 1.0 + 0.5 ** eps - 1.5 ** eps
    assert abs(est.value - closed) < 1e-8
    assert abs(est.value - 1.0) < 0.03


def test_local_measure_small_subdomain():
    est = F.local_measure(LINEAR, UNIT, interval(0.4999, 0.5001),
                          K.make_stable(1, 2.0, 0.1), mode=DET)
    assert 0.0 < est.value < 1e-3


def test_local_measure_requires_compact_containment():
    with pytest.raises(F.EnergyError):
        F.local_measure(LINEAR, UNIT, interval(0.0, 0.5),
                        K.make_stable(1, 2.0, 0.1), mode=DET)


def test_local_measure_mc_agrees():
    sub = interval(0.25, 0.75)
    kern = K.make_stable(1, 2.0, 0.1)
    det = F.local_measure(LINEAR, UNIT, sub, kern, mode=DET)
    mc = F.local_measure(LINEAR, UNIT, sub, kern, mode=MC, n=300_000,
                         seed=12)
    assert abs(mc.value - det.value) <= 4 * mc.stderr


# ---------------------------------------------------------------------------
# pointwise operator and pairing


def test_generator_gaussian_stable_closed_form():
    # for the stable family the value at the origin is Gamma(1 + eps/2)
    # in any dimension
    for d in (1, 2):
        for eps in (0.4, 0.1, 0.02):
            val = F.generator(Gaussian(d), np.zeros(d),
                              K.make_stable(d, 2.0, eps))
            assert abs(val - math.gamma(1.0 + eps / 2.0)) < 1e-9


def _generator_reference(field, x0, kernel, abs_tol=1e-10, rc=1e-4):
    """generator() as a hand-built integral: its own range, cuts at the
    kernel's breakpoints only and a tail hint."""
    d = kernel.dim
    u0 = float(field.eval(x0.reshape(1, -1))[0])
    lap = float(field.laplacian(x0.reshape(1, -1))[0])
    rc = min(rc, kernel.support_radius)
    core = 0.0
    if kernel.inner_radius < rc:
        core = -(lap / (2.0 * d)) * K.weighted_moment(kernel, 2.0, rc)
    area = sphere_area(d)

    def f(r):
        sym = 2.0 * (F._sphere_pair_mean(field.eval, x0, r) - u0)
        return -0.5 * area * sym * np.exp(kernel.log_density(r)) \
            * r ** (d - 1)

    decay = None if kernel.tail_exponent is None \
        else kernel.tail_exponent - (d - 1)
    numeric, _ = integrate(f, max(rc, kernel.inner_radius),
                           kernel.support_radius,
                           points=kernel.breakpoints, decay_exponent=decay,
                           abs_tol=abs_tol)
    return core + numeric


@pytest.mark.parametrize("d", [1, 2, 3])
def test_generator_is_the_radial_integral_of_the_sphere_gap(d):
    for kern in (K.make_stable(d, 2.0, 0.1),
                 K.make_truncated_power(d, 2.0, 0.0, 0.1),
                 K.make_rescaled(K.make_stable(d, 2.0, 0.5), 0.1)):
        x0 = np.full(d, 0.2)
        want = _generator_reference(Gaussian(d), x0, kern)
        got = F.generator(Gaussian(d), x0, kern)
        assert abs(got - want) <= 1e-14 * abs(want), kern.family_tag


@pytest.mark.parametrize("point", [[math.inf], [math.nan], [-math.inf]])
def test_generator_rejects_a_non_finite_point(point):
    calls = []

    class Counted:
        dim = 1

        @staticmethod
        def eval(pts):
            calls.append(len(pts))
            return Gaussian(1).eval(pts)

        @staticmethod
        def laplacian(pts):
            calls.append(len(pts))
            return Gaussian(1).laplacian(pts)

    with pytest.raises(F.EnergyError, match="point"):
        F.generator(Counted(), point, K.make_stable(1, 2.0, 0.1))
    assert calls == []


@pytest.mark.parametrize("field, c, s", [
    (Gaussian(1), 2.0, 3.0), (Gaussian(1), -0.5, 0.25),
    (Gaussian(2), 2.0, 1.0), (Gaussian(2), -0.5, 0.25),
    (Gaussian(2), 2.0, 3.0), (Gaussian(2), 0.0, 3.0),
    (SmoothBump(1, 1.0), 2.0, 3.0), (SmoothBump(1, 1.0), -0.5, 0.25)],
    ids=lambda v: ",".join(v.spec().values()) if hasattr(v, "spec") else None)
def test_generator_of_an_affine_field_is_c_times_the_generator(field, c, s):
    # L(c u + s) = c L(u): the wrapper raised "generator needs a field with
    # an analytic laplacian", and Gaussian(2) with c, s = 2, 3 stalled while
    # the shift still reached the sphere means
    kern = K.make_stable(field.dim, 2.0, 0.1)
    x0 = np.full(field.dim, 0.2)
    want = c * F.generator(field, x0, kern)
    got = F.generator(field.scaled(c).shifted(s), x0, kern)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_generator_needs_a_laplacian():
    # the tent is not C^2; no CLI --field of the generator reaches this
    with pytest.raises(FieldError, match="laplacian"):
        F.generator(Tent(1), [0.5], K.make_stable(1, 2.0, 0.1))


@pytest.mark.parametrize("d", [1, 2])
def test_generator_is_zero_far_out(d):
    # exp(-|x|^2) and its Laplacian underflow to 0 long before 1e155,
    # where (4 |x|^2 - 2d) itself overflows
    point = np.zeros(d)
    point[0] = 1e155
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = F.generator(Gaussian(d), point, K.make_stable(d, 2.0, 0.1))
    assert val == 0.0


def test_generator_below_float_resolution_is_gamma():
    # the moment core's power map collapsed at eps = 1e-3: this raised, and
    # before that read 0.5045 against Gamma(1 + eps/2) = 0.9997
    got = F.generator(Gaussian(1), [0.0], K.make_stable(1, 2.0, 1e-3))
    assert abs(got - math.gamma(1.0005)) <= 1e-11


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6])
@pytest.mark.parametrize("d", [1, 2])
def test_generator_of_a_gaussian_is_gamma_at_small_eps(d, eps):
    # generator(Gaussian(d), 0, stable p = 2) = Gamma(1 + eps/2) in every d;
    # at eps = 1e-6 the stored d + 2 - eps carries about ulp(d + 2) / eps
    # relative error into the core exponent (-1.4e-10 measured).  d = 3
    # misses by up to 6.2e-10 at larger eps, through the cancellation of
    # the sphere-mean gap near its core
    got = F.generator(Gaussian(d), np.zeros(d), K.make_stable(d, 2.0, eps))
    tol = 1e-9 if eps < 1e-3 else 1e-10
    assert abs(got - math.gamma(1.0 + eps / 2.0)) <= tol


def test_generator_linear_vanishes():
    val = F.generator(Linear((1.0,)), [0.3], K.make_stable(1, 2.0, 0.1))
    assert abs(val) < 1e-10


def test_generator_requires_p2():
    with pytest.raises(F.EnergyError):
        F.generator(Gaussian(1), [0.0], K.make_stable(1, 1.0, 0.1))


def test_generator_other_family():
    val = F.generator(Gaussian(2), np.zeros(2),
                      K.make_truncated_power(2, 2.0, 1.0, 0.05))
    assert abs(val - 1.0) < 0.01


def test_dirac_pairing_bump():
    bump = SmoothBump(1, 0.5)
    vals = [F.dirac_pairing(bump, K.make_truncated_power(1, 1.0, 1.0, eps))
            for eps in (0.4, 0.1, 0.02)]
    gaps = [abs(v - 1.0) for v in vals]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02


def test_dirac_pairing_odd_function_exact_zero():
    class OddBump:
        support_radius = 0.5

        @staticmethod
        def eval(pts):
            x = pts[:, 0]
            out = np.zeros_like(x)
            inside = np.abs(x) < 0.5
            out[inside] = x[inside] * np.exp(1 - 1 / (1 - (x[inside] / 0.5) ** 2))
            return out

    for eps in (0.4, 0.1, 0.02):
        val = F.dirac_pairing(OddBump(), K.make_truncated_power(1, 1.0,
                                                                1.0, eps))
        assert val == 0.0


def test_dirac_pairing_windowed_gaussian():
    window = SmoothBump(1, 0.8)
    gauss = Gaussian(1)

    class Windowed:
        support_radius = 0.8

        @staticmethod
        def eval(pts):
            return gauss.eval(pts) * window.eval(pts)

    val = F.dirac_pairing(Windowed(), K.make_truncated_power(1, 1.0, 1.0,
                                                             0.02))
    assert abs(val - 1.0) < 0.02


def test_dirac_pairing_p_guard():
    bump = SmoothBump(1, 0.5)
    with pytest.raises(F.EnergyError):
        F.dirac_pairing(bump, K.make_stable(1, 2.0, 0.1))


def test_dirac_pairing_divergent_origin_raises():
    # nu ~ r^-3 against the weight r^1 in d = 1: weighted exponent -1
    kern = K.RadialKernel(dim=1, p_exp=1.0, profile=lambda r: r ** -3.0,
                          support_radius=1.0, origin_exponent=3.0,
                          breakpoints=(1.0,))
    with pytest.raises(QuadratureError):
        F.dirac_pairing(SmoothBump(1, 0.5), kern)


def test_dirac_pairing_rejects_a_test_function_of_another_dimension():
    with pytest.raises(F.EnergyError, match="dimension mismatch"):
        F.dirac_pairing(SmoothBump(2, 0.5), K.make_stable(3, 1.0, 0.1))


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf,
                                    "missing"])
def test_dirac_pairing_rejects_a_bad_support_radius(radius):
    bump = SmoothBump(1, 0.5)
    calls = []

    class Probe:
        @staticmethod
        def eval(pts):
            calls.append(len(pts))
            return bump.eval(pts)

    probe = Probe()
    if radius != "missing":
        probe.support_radius = radius
    with pytest.raises(F.EnergyError, match="support_radius"):
        F.dirac_pairing(probe, K.make_truncated_power(1, 1.0, 1.0, 0.1))
    assert calls == []


def test_dirac_pairing_rejects_a_shifted_test_function():
    # bump + 1 is 1, not 0, beyond the bump: it has no support radius (the
    # integral up to 0.5 read 1.632430 where bump + normalization is 1.792701)
    shifted = SmoothBump(1, 0.5).shifted(1.0)
    with pytest.raises(F.EnergyError, match="support_radius"):
        F.dirac_pairing(shifted, K.make_stable(1, 1.0, 0.1))


# the values of the code whose sphere means evaluated every sphere, shifted
# every point by the centre and took one integrand call per panel.  Seven
# were re-pinned when the moment core of ``generator`` and the core of
# ``dirac_pairing`` became closed forms (kernels.core_integral), old ->
# new, with the relative distance to Gamma(1 + eps/2) for ``generator``:
#   generator 3 0.2   ...3093ap-1 -> ...3093cp-1  4.9e-10 -> 4.9e-10
#   generator 3 0.1   ...c62ap-1  -> ...c620p-1   6.2e-10 -> 6.2e-10
#   generator 3 0.05  ...a75ap-1  -> ...a748p-1   5.0e-10 -> 5.0e-10
#   generator 3 0.02  ...2696fp-1 -> ...2694dp-1  2.7e-10 -> 2.7e-10
#   generator 2 0.1   ...d77ap-1  -> ...d77cp-1   -3.5e-11 -> -3.5e-11
#   dirac 3 0.1       ...8a1bp-1  -> ...8a10p-1   (-1.5e-15 relative)
#   dirac 3 0.02      ...297f3p-1 -> ...297b1p-1  (-7.7e-15 relative)
POINTWISE_BITS = {
    ("generator", 3, 0.4): "0x1.d61a36a2d3875p-1",
    ("generator", 3, 0.2): "0x1.e71772bb3093cp-1",
    ("generator", 3, 0.1): "0x1.f26f26b36c620p-1",
    ("generator", 3, 0.05): "0x1.f8ebcb340a748p-1",
    ("generator", 3, 0.02): "0x1.fd18472b2694dp-1",
    ("generator", 2, 0.1): "0x1.f26f26aded77cp-1",
    ("dirac", 3, 0.1): "0x1.95dcda52b8a10p-1",
    ("dirac", 3, 0.02): "0x1.e91980dd297b1p-1",
}


@pytest.mark.parametrize("op, d, eps", sorted(POINTWISE_BITS))
def test_pointwise_rows_keep_their_bits(op, d, eps):
    if op == "generator":
        got = F.generator(Gaussian(d), np.zeros(d), K.make_stable(d, 2.0, eps))
    else:
        got = F.dirac_pairing(SmoothBump(d, 0.5), K.make_stable(d, 1.0, eps))
    assert got.hex() == POINTWISE_BITS[op, d, eps]


# the values of the code whose d = 1 sphere mean had its own branch and
# whose power map scored collapsed nodes 0.  Four were re-pinned when the
# origin power map gave way to kernels.core_integral, old -> new, with the
# relative distance to Gamma(1 + eps/2) for ``generator``:
#   generator 0.05  ...e625p-1 -> ...e620p-1  9.2e-11 -> 9.2e-11
#   generator 0.02  ...9bbep-1 -> ...9bc2p-1  4.9e-11 -> 4.9e-11
#   dirac 0.1       ...8a1ep-1 -> ...8a25p-1  (9.8e-16 relative)
#   dirac 0.02      ...2980fp-1 -> ...297eep-1  (-3.8e-15 relative)
ONE_DIM_POINTWISE_BITS = {
    ("generator", "stable", 0.4): "0x1.d61a36a1e3dcbp-1",
    ("generator", "stable", 0.2): "0x1.e71772b7ecf7ep-1",
    ("generator", "stable", 0.1): "0x1.f26f26af20274p-1",
    ("generator", "stable", 0.05): "0x1.f8ebcb308e620p-1",
    ("generator", "stable", 0.02): "0x1.fd18472949bc2p-1",
    ("dirac", "stable", 0.1): "0x1.95dcda52b8a25p-1",
    ("dirac", "stable", 0.02): "0x1.e91980dd297eep-1",
    ("dirac", "truncated_power", 0.1): "0x1.f59f42d800234p-1",
    ("dirac", "truncated_power", 0.02): "0x1.ff971621d274ap-1",
}


@pytest.mark.parametrize("op, family, eps", sorted(ONE_DIM_POINTWISE_BITS))
def test_one_dimensional_pointwise_rows_keep_their_bits(op, family, eps):
    if op == "generator":
        kern = K.KernelFamily(family, 1, 2.0).kernel(eps)
        got = F.generator(Gaussian(1), np.zeros(1), kern)
    else:
        extra = {"beta": 1.0} if family == "truncated_power" else {}
        kern = K.KernelFamily(family, 1, 1.0, **extra).kernel(eps)
        got = F.dirac_pairing(SmoothBump(1, 0.5), kern)
    assert got.hex() == ONE_DIM_POINTWISE_BITS[op, family, eps]


def test_off_centre_one_dimensional_generator_keeps_its_bits():
    # 0x1.798511acd8133p-1 before the moment core became a closed form
    # (-1.5e-16 relative)
    got = F.generator(Gaussian(1), [0.3], K.make_stable(1, 2.0, 0.1))
    assert got.hex() == "0x1.798511acd8132p-1"


# the parent values of the driver that evaluated each starting region
# with its own integrand call; the sphere means are not elementwise, so
# these pin that one call on all the starting panels moves no bit.  The
# rescaled kernels split (r_c, 1) at eps, and the d = 3 pairing on
# SmoothBump(3, 2) starts on (0.1, 1) and (1, 2), two panels in one call.
# Four were re-pinned when the cores became closed forms
# (kernels.core_integral), old -> new: generator/d3/stable ...c62ap-1 ->
# ...c620p-1 and generator/d2/stable ...d77ap-1 -> ...d77cp-1 (each as far
# from Gamma(1.05) as before, 6.2e-10 and -3.5e-11), dirac/d3/stable
# ...8a1bp-1 -> ...8a10p-1 (-1.5e-15 relative) and dirac/d3/rescaled
# ...1612p-1 -> ...1615p-1 (3.9e-16 relative)
STARTING_CALL_BITS = {
    "generator/d3/stable": (
        lambda: F.generator(Gaussian(3), np.zeros(3),
                            K.make_stable(3, 2.0, 0.1)),
        "0x1.f26f26b36c620p-1"),
    "generator/d2/stable": (
        lambda: F.generator(Gaussian(2), np.zeros(2),
                            K.make_stable(2, 2.0, 0.1)),
        "0x1.f26f26aded77cp-1"),
    "dirac/d3/stable": (
        lambda: F.dirac_pairing(SmoothBump(3, 0.5),
                                K.make_stable(3, 1.0, 0.1)),
        "0x1.95dcda52b8a10p-1"),
    # re-pinned when the d = 3 row sums of the fields became left to right
    # (they had copied einsum's two-lane order): 0x1.9e6bd39cffa47p-1 ->
    # 0x1.9e6bd39d000e6p-1, 2.3e-13 relative.  The generator's integrand
    # cancels to about 1e-8 relative near its core, so last-bit changes of
    # the field values show here
    "generator/d3/rescaled": (
        lambda: F.generator(Gaussian(3), np.full(3, 0.2),
                            K.KernelFamily("rescaled", 3, 2.0).kernel(0.1)),
        "0x1.9e6bd39d000e6p-1"),
    "generator/d2/rescaled": (
        lambda: F.generator(Gaussian(2), np.zeros(2),
                            K.KernelFamily("rescaled", 2, 2.0).kernel(0.1)),
        "0x1.fb53b6d563192p-1"),
    "dirac/d3/rescaled": (
        lambda: F.dirac_pairing(
            SmoothBump(3, 2.0), K.KernelFamily("rescaled", 3, 1.0).kernel(0.1)),
        "0x1.b0c81b08d1615p-1"),
}


@pytest.mark.parametrize("row", sorted(STARTING_CALL_BITS))
def test_sphere_mean_integrals_keep_their_bits(row):
    run, value = STARTING_CALL_BITS[row]
    assert run().hex() == value


def test_pointwise_values_pinned():
    # values of the code that rebuilt the direction rule on every call
    # re-pinned when the cores became closed forms (kernels.core_integral):
    # 0.7927005983331726 -> 0.7927005983331714, -1.5e-15 relative
    assert F.dirac_pairing(SmoothBump(3, 0.5),
                           K.make_stable(3, 1.0, 0.1)) == 0.7927005983331714
    # re-pinned when the d = 3 row sums of the fields became left to right:
    # 0.7977211433995324 -> 0.7977211433949738, 5.7e-12 relative (the
    # generator's integrand cancels to about 1e-8 relative near its core),
    # and with the closed-form moment core -> 0.7977211433949729, -1.1e-15
    assert F.generator(Gaussian(3), np.full(3, 0.2),
                       K.make_stable(3, 2.0, 0.1)) == 0.7977211433949729


# ---------------------------------------------------------------------------
# sphere means

SPHERE_RADII = np.array([0.0, 0.05, 0.3, 1.0, 1.7, 4.5])
SPHERE_CENTERS = {2: np.array([0.7, -0.4]), 3: np.array([0.7, -0.4, 1.3])}
# the radii of one Gauss panel of the pointwise radial integrals
PANEL_RADII = 0.6 + 0.4 * quadrature._all_nodes


def _sphere_poly(pts):
    return pts[:, 0] + 3.0 * pts[:, 1] ** 2 + pts[:, 0] * pts[:, -1]


def _sphere_mean_broadcast(evaluate, center, radii, n_angle):
    """The sphere mean with its direction rule built on every call and its
    points broadcast over (radii, directions, d)."""
    d = center.size
    weights = None
    if d == 2:
        theta = (np.arange(n_angle) + 0.5) * (2.0 * math.pi / n_angle)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        t, wt = np.polynomial.legendre.leggauss(48)
        phi = (np.arange(n_angle) + 0.5) * (2.0 * math.pi / n_angle)
        st = np.sqrt(1.0 - t ** 2)
        dirs = np.concatenate([
            np.column_stack([st * math.cos(p0), st * math.sin(p0), t])
            for p0 in phi])
        weights = np.tile(wt / 2.0, n_angle) / n_angle
    pts = center[None, None, :] + radii[:, None, None] * dirs[None, :, :]
    vals = np.asarray(evaluate(pts.reshape(-1, d)), dtype=float)
    vals = vals.reshape(radii.size, -1)
    return vals.mean(axis=1) if weights is None else vals @ weights


@pytest.mark.parametrize("n_angle", [128, 256])
@pytest.mark.parametrize("d", [2, 3])
def test_sphere_pair_mean_exact_on_an_off_centre_polynomial(d, n_angle):
    # the mean of x0 + 3 x1^2 + x0 x_{d-1} over the sphere of radius r
    # about c is c0 + 3 (c1^2 + r^2 / d) + c0 c_{d-1}
    c = SPHERE_CENTERS[d]
    got = F._sphere_pair_mean(_sphere_poly, c, SPHERE_RADII, n_angle=n_angle)
    want = c[0] + 3.0 * (c[1] ** 2 + SPHERE_RADII ** 2 / d) + c[0] * c[-1]
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("n_angle", [128, 256])
@pytest.mark.parametrize("d", [2, 3])
def test_sphere_pair_mean_equals_the_broadcast_construction(d, n_angle):
    # PANEL_RADII span several blocks in d = 3 and end with a partial one
    c = SPHERE_CENTERS[d]
    for radii in (SPHERE_RADII, PANEL_RADII):
        for evaluate in (_sphere_poly, Gaussian(d).eval,
                         SmoothBump(d, 2.0).eval):
            got = F._sphere_pair_mean(evaluate, c, radii, n_angle=n_angle)
            want = _sphere_mean_broadcast(evaluate, c, radii, n_angle)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n_angle", [128, 256])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("centre", ["off", "origin"])
def test_sphere_pair_mean_skips_spheres_beyond_the_support(centre, d,
                                                          n_angle):
    # radii on both sides of the Gaussian's underflow radius 27.31
    c = SPHERE_CENTERS[d] if centre == "off" else np.zeros(d)
    radii = np.array([27.0, 27.3, 27.32, 40.0, 1e6])
    field = Gaussian(d)
    cut = (np.linalg.norm(c) + field.support_radius) * (1.0 + 1e-9)
    seen = []

    def evaluate(pts):
        seen.append(pts.copy())
        return field.eval(pts)

    got = F._sphere_pair_mean(evaluate, c, radii, n_angle=n_angle,
                              support_radius=field.support_radius)
    assert np.array_equal(got, _sphere_mean_broadcast(field.eval, c, radii,
                                                      n_angle))
    pts = np.concatenate(seen)
    # only the spheres that meet the support reach the field
    assert np.all(np.linalg.norm(pts - c, axis=1) < cut)
    assert pts.shape[0] == np.count_nonzero(radii < cut) * (
        F._sphere_rule(d, n_angle)[0].shape[0])
    if centre == "origin":
        assert np.all(np.linalg.norm(pts, axis=1) < field.support_radius)


@pytest.mark.parametrize("centre", [0.0, 0.7])
def test_one_dimensional_sphere_mean_is_the_mean_of_two_points(centre):
    # the rule's directions +1 and -1 give 0.5 (u(c + r) + u(c - r)) bit for
    # bit, at the origin (radius 0 included) and off it, and 0.0 beyond the
    # support
    c = np.array([centre])
    radii = np.concatenate([SPHERE_RADII, PANEL_RADII, [27.0, 27.32, 1e6]])
    for field in (Gaussian(1), SmoothBump(1, 2.0)):
        got = F._sphere_pair_mean(field.eval, c, radii,
                                  support_radius=field.support_radius)
        want = 0.5 * (field.eval((centre + radii)[:, None])
                      + field.eval((centre - radii)[:, None]))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d, n_angle",
                         [(2, 128), (2, 256), (2, 20_000), (3, 128), (3, 256)])
def test_sphere_pair_mean_feeds_the_field_whole_radii_within_the_budget(
        d, n_angle):
    n_dirs = F._sphere_rule(d, n_angle)[0].shape[0]
    calls = []

    def evaluate(pts):
        calls.append(len(pts))
        return _sphere_poly(pts)

    F._sphere_pair_mean(evaluate, SPHERE_CENTERS[d], PANEL_RADII,
                        n_angle=n_angle)
    assert sum(calls) == PANEL_RADII.size * n_dirs
    for n in calls:
        assert n % n_dirs == 0
        assert n <= F._SPHERE_BLOCK or n == n_dirs
    # a single radius over the budget is one call on its own
    assert (n_dirs > F._SPHERE_BLOCK) == (max(calls) > F._SPHERE_BLOCK)


def test_dirac_pairing_memory_is_bounded_per_block():
    # the whole panel's points (30 radii x 12,288 directions x 3) would
    # take 8.8 MB alone
    bump, kernel = SmoothBump(3, 0.5), K.make_stable(3, 1.0, 0.1)
    tracemalloc.start()
    try:
        F.dirac_pairing(bump, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_rule_is_built_once_and_read_only(d):
    dirs, weights = F._sphere_rule(d, 128)
    assert F._sphere_rule(d, 128)[0] is dirs
    assert dirs.shape == ({1: 2, 2: 128, 3: 128 * 48}[d], d)
    for arr in (dirs, weights):
        if arr is None:
            continue
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert (weights is None) == (d < 3)


# ---------------------------------------------------------------------------
# fractional seminorms


def test_gagliardo_linear_closed_form():
    for s in (0.8, 0.9, 0.95, 0.99):
        val = (1.0 - s) * F.gagliardo(LINEAR, UNIT, s, 2.0)
        closed = 1.0 - 2.0 * (1.0 - s) / (3.0 - 2.0 * s)
        assert abs(val - closed) < 1e-8


def test_gagliardo_slit_log_divergence():
    vals = []
    cuts = (1e-2, 1e-3, 1e-4, 1e-5)
    for t in cuts:
        vals.append(F.gagliardo(SignJump(1), slit_interval(), 0.5, 2.0,
                                cutoff=t))
    # closed form 2 log(1/t) + 2(1 - log 2)
    for t, v in zip(cuts, vals):
        assert abs(v - (2 * math.log(1 / t) + 2 * (1 - math.log(2)))) < 1e-8
    logs = [math.log(1 / t) for t in cuts]
    slope = np.polyfit(logs, vals, 1)[0]
    assert slope > 0.5


def test_gagliardo_slit_subcritical_stabilizes():
    a = F.gagliardo(SignJump(1), slit_interval(), 0.25, 2.0, cutoff=1e-4)
    b = F.gagliardo(SignJump(1), slit_interval(), 0.25, 2.0, cutoff=1e-5)
    assert abs(b - a) / abs(b) < 0.01


def test_gagliardo_validates_s():
    with pytest.raises(F.EnergyError):
        F.gagliardo(LINEAR, UNIT, 1.5, 2.0)


def test_gagliardo_keeps_its_bits():
    # re-pinned when jump fields moved from the nested oracle (which read
    # 0x1.295cd70722c3ap+2, -7.5e-16 relative) to the covariogram route
    # (-3.7e-16), and when the r-integrals started on octave panels above
    # the cutoff (...c3cp+2, -1.9e-16 -> ...c3bp+2, -3.8e-16); the closed
    # form is 2 (8 - 4 sqrt 2 - 2 sqrt(cutoff))
    got = F.gagliardo(SignJump(1), slit_interval(), 0.25, 2.0, cutoff=1e-4)
    assert got.hex() == "0x1.295cd70722c3bp+2"
    closed = 2.0 * (8.0 - 4.0 * math.sqrt(2.0) - 2.0 * math.sqrt(1e-4))
    assert abs(got - closed) <= 1e-15 * closed


# each fractional family's suite case, whose closed form is the energy of
# Linear((1,)) on (0, 1) at p = 2 under that family
_FRACTIONAL_CASES = {"frac_order": "frac-s-to-1",
                     "frac_ball": "frac-small-ball",
                     "frac_log": "frac-log-window"}


def _fractional_closed(kind, x):
    return _SUITE_CLOSED_FORMS[_FRACTIONAL_CASES[kind]](x)


def _fractional_energy(kind, x):
    kern = K.KernelFamily(kind, 1, 2.0).kernel(x)
    return F.energy(LINEAR, UNIT, kern, mode=DET).value


# re-pinned when the scale moved into the kernel (the rescalings were
# fractional_values, the energy of the unit power window times the scale);
# relative distance to _fractional_closed, old -> new:
#   frac_order  0.9 -1.2e-15 -> -1.5e-15,  0.99 -1.1e-16 -> -1.1e-16
#   frac_ball   0.1 -1.2e-16 -> 2.3e-16,   0.02 -1.1e-16 -> 2.2e-16
#   frac_log    1e-3 -6.5e-16 -> -3.9e-16, 1e-5 0 -> 0
# and again when the r-integrals started on octave panels ``lo 2^k``:
#   frac_order  0.9  ...aa0p-1 (-1.5e-15) -> ...a9dp-1 (-1.9e-15)
#   frac_ball   0.02 ...7b0p+0 (2.2e-16)  -> ...7afp+0 (1.1e-16)
#   frac_log    1e-3 ...c49p+0 (-3.9e-16) -> ...c4ap+0 (-2.6e-16)
# and again when the pair energy's core became kernels.core_integral
# (radius 2^-14, a quadratic fit):
#   frac_order  0.9  ...a9dp-1 (-1.9e-15) -> ...a9ep-1 (-1.7e-15)
FRACTIONAL_BITS = {
    "frac_order": ((0.9, "0x1.aaaaaaaaaaa9ep-1"),
                   (0.99, "0x1.f5f5f5f5f5f5ep-1")),
    "frac_ball": ((0.1, "0x1.e666666666668p+0"),
                  (0.02, "0x1.fae147ae147afp+0")),
    "frac_log": ((1e-3, "0x1.b5f45bf2a8c4ap+0"),
                 (1e-5, "0x1.d38758367ab30p+0")),
}


@pytest.mark.parametrize("kind", sorted(FRACTIONAL_BITS))
def test_fractional_values_keep_their_bits(kind):
    got = [(x, _fractional_energy(kind, x).hex())
           for x, _ in FRACTIONAL_BITS[kind]]
    assert got == list(FRACTIONAL_BITS[kind])


@pytest.mark.parametrize("kind", K.FRACTIONAL_KINDS)
@pytest.mark.parametrize("x", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_fractional_families_reject_an_index_outside_0_1(kind, x):
    with pytest.raises(K.KernelError, match="needs 0 <"):
        K.KernelFamily(kind, 1, 2.0).kernel(x)


def test_frac_ball_rejects_an_eps_whose_scale_overflows():
    # eps^-d overflows: 1e-120^3 underflows to 0, 1e-310 * max < 1
    for d, eps in ((3, 1e-120), (1, 1e-310)):
        with pytest.raises(K.KernelError, match="float range"):
            K.KernelFamily("frac_ball", d, 2.0).kernel(eps)


def test_fractional_variants_linear():
    # frac_ball's closed-form core stops at its support eps: with the core
    # up to 2^-17 ~ 7.6e-6 the energy read 15.26 at eps = 1e-6
    for kind, grid in (("frac_order", (0.9, 0.99)),
                       ("frac_ball", (0.1, 0.02, 1e-6, 1e-8)),
                       ("frac_log", (1e-3, 1e-5))):
        for x in grid:
            assert abs(_fractional_energy(kind, x)
                       - _fractional_closed(kind, x)) < 1e-8


@pytest.mark.parametrize("kind", K.FRACTIONAL_KINDS)
def test_monte_carlo_refuses_a_fractional_kernel(kind):
    kern = K.KernelFamily(kind, 1, 2.0).kernel(0.5)
    with pytest.raises(K.KernelError, match="radial_sampler"):
        F.energy(LINEAR, UNIT, kern, mode=MC, n=1000)


def test_mc_energy_dimension_two():
    # 2-D: Gaussian on a disk large enough to hold the support mass; at
    # eps = 0.05 the energy sits within a percent of the gradient target
    from plevylab.fields import grad_lp_norm
    g2, dom = Gaussian(2), Ball(3.0, 2)
    est = F.energy(g2, dom, K.make_stable(2, 2.0, 0.05), mode=MC,
                   n=200_000, seed=11)
    target = kdp_mean(2, 2.0) * grad_lp_norm(g2, dom, 2.0)
    assert abs(est.value - target) <= 4.0 * est.stderr + 0.02 * target


def test_det_mode_needs_interval_union():
    with pytest.raises(F.EnergyError):
        F.energy(Gaussian(2), Ball(1.0, 2), K.make_stable(2, 2.0, 0.1),
                 mode=DET)
