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
from plevylab.constants import kdp_mean, sphere_area
from plevylab.fields import (LIPSCHITZ, PIECEWISE_CONSTANT, Field,
                             Gaussian, Linear, Scaled, Shifted, SignJump,
                             SmoothBump, Tent, sobolev_norm_p)
from plevylab.geometry import (_ROW_BLOCK, Ball, Box, IntervalUnion,
                               SlitBall, interval, slit_interval)
from plevylab.quadrature import QuadratureError, integrate

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


def _geo_refine(lo, hi, cuts, *, origin=0.0, factor=8.0):
    """Scalar reference of the geometric split points: ``origin + t`` for
    ``t = (lo - origin) * factor**k``, k >= 1, inside ``(lo, hi)``, with
    the cuts, sorted."""
    pts = set(cuts)
    t = (lo - origin) * factor
    while 0.0 < t and origin + t < hi:
        if origin + t > lo:
            pts.add(origin + t)
        t *= factor
    return sorted(pts)


def _range_value(integ, x, slope, r_lo, r_hi, sign, floor):
    """Scalar reference set-up of the inner range ``r_lo < r < r_hi`` on
    one side of x: ``(core, start, hi, points)``, with the closed-form core
    value and the range and cut points left to quadrature, or None when the
    kernel sees nothing of the range."""
    kernel, p = integ.kernel, integ.p
    lo = max(r_lo, kernel.inner_radius, floor)
    hi = min(r_hi, kernel.support_radius)
    if hi <= lo:
        return None
    cuts = set()
    for m in integ.marks:
        rm = sign * (m - x)
        if rm > lo and (not math.isfinite(hi) or rm < hi):
            cuts.add(rm)
    for b in kernel.breakpoints:
        if lo < b and (not math.isfinite(hi) or b < hi):
            cuts.add(b)
    total = 0.0
    start = lo
    first = min(cuts) if cuts else (hi if math.isfinite(hi) else 1.0)
    if lo == 0.0 and kernel.origin_pure_radius > 0.0:
        gamma = kernel.origin_exponent
        core_top = F._SMALL_R \
            if integ.field.regularity == PIECEWISE_CONSTANT \
            else min(1e-4 * max(1.0, abs(x)), first)
        r_cl = min(core_top, kernel.origin_pure_radius, first * 0.5,
                   hi * 0.5 if math.isfinite(hi) else core_top)
        if r_cl > 0.0:
            a_in = p - gamma + 1.0
            if abs(slope) > 0.0:
                if a_in <= 0.0:
                    raise QuadratureError("inner exponent <= 0")
                total += (abs(slope) ** p * kernel.origin_coefficient
                          * r_cl ** a_in / a_in)
            start = r_cl
    cuts = [c for c in cuts if c > start]
    top = hi if math.isfinite(hi) else max([start] + cuts + [1.0])
    return total, start, hi, _geo_refine(start, top, cuts)


def _sides(x, y_iv):
    ay, by = y_iv
    if by <= x:
        return [(x - by, x - ay, -1.0)]
    if ay >= x:
        return [(ay - x, by - x, +1.0)]
    return [(0.0, x - ay, -1.0), (0.0, by - x, +1.0)]


def _slope(field, x):
    return 0.0 if field.regularity == PIECEWISE_CONSTANT \
        else float(field.grad([[x]])[0, 0])


def _inner_reference(integ, x, y_iv, floor):
    """The oracle's inner integral at one node: the scalar set-up of
    ``_range_value`` and one public ``integrate`` call per side."""
    field, kernel, p = integ.field, integ.kernel, integ.p
    slope = _slope(field, x)
    total = 0.0
    for r_lo, r_hi, sign in _sides(x, y_iv):
        spec = _range_value(integ, x, slope, r_lo, r_hi, sign, floor)
        if spec is None:
            continue
        core, start, hi, points = spec

        def f(r, sign=sign):
            du = np.abs(field.offset_diff(np.full((r.size, 1), x),
                                          (sign * r)[:, None]))
            out = np.exp(p * np.log(du) + kernel.log_density(r))
            return np.where(du > 0.0, out, 0.0)

        val, _ = integrate(f, start, hi, points=points,
                           decay_exponent=kernel.tail_exponent,
                           abs_tol=integ.inner_tol, rel_tol=integ.inner_rel)
        total += core + val
    return total


_NODES = np.linspace(0.01, 0.99, 23)


_INNER_CASES = [
    # cross-tent p = 1: partners left and right of (0, 1), with the tent
    # kinks and the sign change of u(y) - u(x) at r = 2x inside the ranges
    (Tent(1), K.make_stable(1, 1.0, 0.1), (-math.inf, 0.0), _NODES, 0.0),
    (Tent(1), K.make_stable(1, 1.0, 0.1), (1.0, math.inf), _NODES, 0.0),
    (Tent(1), K.make_stable(1, 1.0, 0.1), (-2.0, 2.0), _NODES, 0.0),
    # the sign jump's sliver nodes next to the interface, with their floor
    (SignJump(1), K.make_stable(1, 1.0, 0.1), (-1.0, 0.0),
     np.array([5e-7, 1e-6, 3e-6, 0.25]), 1e-6),
    # a power window with a cutoff and an infinite range
    (LINEAR, F._power_window_kernel(1, 2.0, 3.0, cutoff=0.05), (0.0, 1.0),
     _NODES, 0.0),
]
_INNER_IDS = ["tent-left", "tent-right", "tent-both", "jump-sliver",
              "window-cutoff"]


@pytest.mark.parametrize("field, kernel, y_iv, xs, floor", _INNER_CASES,
                         ids=_INNER_IDS)
def test_batched_inner_matches_per_node_integrate(field, kernel, y_iv, xs,
                                                  floor):
    integ = F._Oracle(field, kernel, 1e-10)
    batch = integ.inner(xs, *y_iv, floor=floor)
    for x, val in zip(xs, batch):
        ref = _inner_reference(integ, float(x), y_iv, floor)
        assert abs(val - ref) <= 1e-14 * abs(ref), x


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("field, kernel, y_iv, xs, floor", _INNER_CASES + [
    # a finite-support window: every range ends at min(r_hi, top)
    (LINEAR, F._power_window_kernel(1, 2.0, 2.0, top=0.3), (0.0, 1.0),
     _NODES, 0.0),
], ids=_INNER_IDS + ["window-top"])
def test_array_inner_set_up_matches_the_scalar_reference(field, kernel, y_iv,
                                                         xs, floor):
    integ = F._Oracle(field, kernel, 1e-10)
    node, x_of, sign, core, start, hi, points = integ._ranges(
        np.asarray(xs, dtype=float), *y_iv, floor)
    want = []
    for k, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        slope = _slope(field, x)
        for r_lo, r_hi, s in _sides(x, y_iv):
            spec = _range_value(integ, x, slope, r_lo, r_hi, s, floor)
            if spec is not None:
                want.append((k, x, s, *spec))
    assert len(want) == node.size > 0
    for j, (k, x, s, w_core, w_start, w_hi, w_pts) in enumerate(want):
        row = points[j]
        assert (node[j], x_of[j], sign[j]) == (k, x, s)
        assert _bits([core[j], start[j], hi[j]]) \
            == _bits([w_core, w_start, w_hi]), (x, s)
        assert _bits(np.unique(row[~np.isnan(row)])) == _bits(w_pts), (x, s)


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
    # the slit interval has three pairs, the mixed one counted twice
    kern = K.make_stable(1, 1.0, 0.2)
    slit = slit_interval()
    lo, hi = slit.intervals
    single = [F._Oracle(SignJump(1), kern, 1e-10 / 3).total([(x_iv, y_iv,
                                                               1.0)])
              for x_iv, y_iv in ((lo, lo), (lo, hi), (hi, hi))]
    full = F.energy(SignJump(1), slit, kern, mode=DET).value
    assert full == 1.0 * single[0] + 2.0 * single[1] + 1.0 * single[2]


def test_oracle_runs_every_outer_piece_in_one_batch(monkeypatch):
    calls = []
    hook = Linear._offset_diff

    def counted(self, pts, off):
        calls.append(len(pts))
        return hook(self, pts, off)

    monkeypatch.setattr(Linear, "_offset_diff", counted)
    est = F.energy(Linear((1.0,)), UNIT, K.make_stable(1, 2.0, 0.4),
                   mode=DET)
    # one inner round per call; one outer heap per piece would take 285
    assert len(calls) <= 160
    assert abs(est.value - 0.5714285714444457) <= 1e-15
    half_line = IntervalUnion(((0.0, math.inf),))
    est = F.energy(Gaussian(1), half_line, K.make_stable(1, 2.0, 0.5),
                   mode=DET)
    assert abs(est.value - 0.577351551203189) <= 1e-14


def test_jump_estimate_memory_is_bounded():
    # an outer round of the sign jump at eps = 0.4 fed one inner batch of
    # about 8,000 panels, at a peak of 13.3 MB; with the panels on which
    # the field is exactly zero skipped, the peak is about 2.9 MB
    kernel = K.make_stable(1, 1.0, 0.4)
    tracemalloc.start()
    try:
        est = F.energy(SignJump(1), SYM, kernel, mode=DET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(est.value - jump_energy_closed(0.4)) < 1e-8
    assert peak <= 16e6, peak


# perfbench ``suite`` rows, recorded before the inner batches skipped the
# exact-zero panels of jump fields and the lock-step rounds moved onto one
# panel table
_SUITE_BITS = {
    "bv-signjump@0.4": (
        lambda: F.energy(SignJump(1), SYM, K.make_stable(1, 1.0, 0.4),
                         mode=DET), "0x1.5c697588d5922p-1"),
    "local-bv-signjump@0.4": (
        lambda: F.local_measure(SignJump(1), SYM, interval(-0.5, 0.5),
                                K.make_stable(1, 1.0, 0.4), mode=DET),
        "0x1.29def8a4a8466p-1"),
    "counterexample-energy@0.4": (
        lambda: F.energy(SignJump(1), slit_interval(),
                         K.make_stable(1, 1.0, 0.4), mode=DET),
        "0x1.5c697588d5921p-1"),
    "cross-tent-p1@0.02": (
        lambda: F.cross_energy(Tent(1), UNIT, K.make_stable(1, 1.0, 0.02),
                               mode=DET), "0x1.4141412aad901p-6"),
    "cross-tent-p2@0.02": (
        lambda: F.cross_energy(Tent(1), UNIT, K.make_stable(1, 2.0, 0.02),
                               mode=DET), "0x1.414141434dbecp-7"),
    "w1p-linear-det@0.4": (
        lambda: F.energy(LINEAR, UNIT, K.make_stable(1, 2.0, 0.4), mode=DET),
        "0x1.24924924b5319p-1"),
}


@pytest.mark.parametrize("row", sorted(_SUITE_BITS))
def test_oracle_suite_rows_are_bit_pinned(row):
    run, value = _SUITE_BITS[row]
    assert run().value.hex() == value


def test_jump_estimate_skips_its_exact_zero_panels(monkeypatch):
    # every Gauss panel of the estimate, inner or outer, with its 30 nodes
    sizes = []
    batch = quadrature._batch_estimates

    def counted(f, owner, tail, inv, lo, hi):
        sizes.append(lo.size)
        return batch(f, owner, tail, inv, lo, hi)

    monkeypatch.setattr(quadrature, "_batch_estimates", counted)
    est = F.energy(SignJump(1), SYM, K.make_stable(1, 1.0, 0.4), mode=DET)
    assert est.value.hex() == "0x1.5c697588d5922p-1"
    points = 30 * sum(sizes)
    # 1,049,400 points when every panel of every side was integrated
    assert points == 473_760
    assert points <= 1_049_400 // 2
    assert len(sizes) == 68


def test_jump_estimate_evaluates_no_panel_on_one_side(monkeypatch):
    # the inner integrand reads the field on whole Gauss panels of 30
    # nodes; every panel must see a pair across the jump, and a side with
    # no jump ahead (the right of x > 0, the left of x < 0) is dropped
    panels = []
    hook = SignJump._offset_diff

    def recorded(self, pts, off):
        du = hook(self, pts, off)
        panels.append(du.reshape(-1, 30))
        return du

    monkeypatch.setattr(SignJump, "_offset_diff", recorded)
    est = F.energy(SignJump(1), SYM, K.make_stable(1, 1.0, 0.4), mode=DET)
    assert abs(est.value - jump_energy_closed(0.4)) < 1e-8
    assert panels
    for du in panels:
        assert (du != 0.0).any(axis=1).all()


@pytest.mark.parametrize("field, y_iv", [
    (SignJump(1), (0.2, 0.7)),
    (SignJump(1), (-1.0, 1.0)),
    (SignJump(1), (-math.inf, 0.1)),
    (Shifted(Scaled(SignJump(1), -2.0), 0.5), (-0.4, 0.3)),
], ids=["right", "both", "left-tail", "scaled"])
def test_inner_at_and_beside_the_jump_matches_per_node_integrate(field, y_iv):
    # u(0) = 0 on the jump itself, so a node there sees u change on both
    # sides; nodes a few ulps off it sit on their own side
    kernel = K.make_stable(1, 1.0, 0.4)
    integ = F._Oracle(field, kernel, 1e-10)
    xs = np.array([0.0, 1e-9, -1e-9, 0.05, -0.3, 0.6])
    batch = integ.inner(xs, *y_iv)
    for x, val in zip(xs, batch):
        ref = _inner_reference(integ, float(x), y_iv, 0.0)
        assert abs(val - ref) <= 1e-14 * abs(ref), x
    assert batch[0] > 0.0


def _plateau_kernel():
    """p = 2 kernel whose log density is +inf on r < 0.1 and -3 log r up
    to 1: exp(p log 0 + log nu) is NaN below 0.1, not 0."""

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 0.1, np.inf, -3.0 * np.log(r))

    return K.RadialKernel(dim=1, p_exp=2.0, log_profile=log_profile,
                          support_radius=1.0, breakpoints=(0.1,))


def test_infinite_log_density_keeps_a_constant_field_at_zero():
    est = F.energy(Linear((0.0,), 1.0), UNIT, _plateau_kernel(), mode=DET)
    assert est.value == 0.0
    with pytest.raises(QuadratureError, match="non-finite integrand"):
        F.energy(Linear((1.0,)), UNIT, _plateau_kernel(), mode=DET)


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
    # 0.25 r^-1.5 on (0, 1] claims no closed-form core, so no jump sliver
    # is taken; the unit jump on (-1, 1) has energy 2 * 2 * 0.25 = 1
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
    "d2-slit-ball-energy": (
        lambda: F.energy(SignJump(2), SlitBall(1.0, 2),
                         K.make_stable(2, 1.0, 0.2), mode=MC, n=_PINNED_N,
                         seed=24),
        "0x1.f076a29919bdap-1", "0x1.01d70f8dbd72ap-3"),
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
    # recorded from the whole-chunk estimator; the tabulated inverse CDF
    "d2-disc-smoothed-energy": (
        lambda: F.energy(Gaussian(2), Ball(1.0, 2),
                         K.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5),
                         mode=MC, n=_PINNED_N, seed=29),
        "0x1.52b86f5bbfda2p-1", "0x1.580b88ce89df3p-10"),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_mc_estimates_are_bit_pinned(case):
    run, value, stderr = _PINNED[case]
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
    assert F.energy(Scaled(field, -1.0), domain, kern, mode=DET).value == base
    assert F.energy(Shifted(field, 0.75), domain, kern, mode=DET).value \
        == base
    doubled = F.energy(Scaled(field, 2.0), domain, kern, mode=DET).value
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


def test_generator_below_float_resolution_raises():
    # the moment core's power map collapses at eps = 1e-3: this read 0.5045
    # against Gamma(1 + eps/2) = 0.9997
    with pytest.raises(QuadratureError, match="alpha=0.001"):
        F.generator(Gaussian(1), [0.0], K.make_stable(1, 2.0, 1e-3))


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
# every point by the centre and took one integrand call per panel
POINTWISE_BITS = {
    ("generator", 3, 0.4): "0x1.d61a36a2d3875p-1",
    ("generator", 3, 0.2): "0x1.e71772bb3093ap-1",
    ("generator", 3, 0.1): "0x1.f26f26b36c62ap-1",
    ("generator", 3, 0.05): "0x1.f8ebcb340a75ap-1",
    ("generator", 3, 0.02): "0x1.fd18472b2696fp-1",
    ("generator", 2, 0.1): "0x1.f26f26aded77ap-1",
    ("dirac", 3, 0.1): "0x1.95dcda52b8a1bp-1",
    ("dirac", 3, 0.02): "0x1.e91980dd297f3p-1",
}


@pytest.mark.parametrize("op, d, eps", sorted(POINTWISE_BITS))
def test_pointwise_rows_keep_their_bits(op, d, eps):
    if op == "generator":
        got = F.generator(Gaussian(d), np.zeros(d), K.make_stable(d, 2.0, eps))
    else:
        got = F.dirac_pairing(SmoothBump(d, 0.5), K.make_stable(d, 1.0, eps))
    assert got.hex() == POINTWISE_BITS[op, d, eps]


# the values of the code whose d = 1 sphere mean had its own branch and
# whose power map scored collapsed nodes 0
ONE_DIM_POINTWISE_BITS = {
    ("generator", "stable", 0.4): "0x1.d61a36a1e3dcbp-1",
    ("generator", "stable", 0.2): "0x1.e71772b7ecf7ep-1",
    ("generator", "stable", 0.1): "0x1.f26f26af20274p-1",
    ("generator", "stable", 0.05): "0x1.f8ebcb308e625p-1",
    ("generator", "stable", 0.02): "0x1.fd18472949bbep-1",
    ("dirac", "stable", 0.1): "0x1.95dcda52b8a1ep-1",
    ("dirac", "stable", 0.02): "0x1.e91980dd2980fp-1",
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
    got = F.generator(Gaussian(1), [0.3], K.make_stable(1, 2.0, 0.1))
    assert got.hex() == "0x1.798511acd8133p-1"


def test_pointwise_values_pinned():
    # values of the code that rebuilt the direction rule on every call
    assert F.dirac_pairing(SmoothBump(3, 0.5),
                           K.make_stable(3, 1.0, 0.1)) == 0.7927005983331726
    assert F.generator(Gaussian(3), np.full(3, 0.2),
                       K.make_stable(3, 2.0, 0.1)) == 0.7977211433995324


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
    # the value of the code whose seminorms reached the oracle by their own
    # route beside ``energy``
    got = F.gagliardo(SignJump(1), slit_interval(), 0.25, 2.0, cutoff=1e-4)
    assert got.hex() == "0x1.295cd70722c3ap+2"


FRACTIONAL_BITS = {
    1: ((0.9, "0x1.aaaaaaaaae1b2p-1"), (0.99, "0x1.f5f5f5f5f68b8p-1")),
    2: ((0.1, "0x1.e666666666664p+0"), (0.02, "0x1.fae147ae147adp+0")),
    3: ((1e-3, "0x1.b5f45bf2a8c45p+0"), (1e-5, "0x1.d38758367ab2dp+0")),
}


@pytest.mark.parametrize("variant", sorted(FRACTIONAL_BITS))
def test_fractional_values_keep_their_bits(variant):
    grid = [x for x, _ in FRACTIONAL_BITS[variant]]
    rows = F.fractional_values(LINEAR, UNIT, 2.0, variant, grid)
    assert [(x, v.hex()) for x, v in rows] == list(FRACTIONAL_BITS[variant])


@pytest.mark.parametrize("variant, grid", [(4, (0.1,)), (0, (0.1,)),
                                           (1, (1.5,)), (1, (0.9, 1.0))])
def test_fractional_values_reject_a_bad_variant_or_s(variant, grid):
    with pytest.raises(F.EnergyError):
        F.fractional_values(LINEAR, UNIT, 2.0, variant, grid)


def test_fractional_variants_linear():
    rows = F.fractional_values(LINEAR, UNIT, 2.0, 1, (0.9, 0.99))
    for s, v in rows:
        assert abs(v - 1.0 / (3.0 - 2.0 * s)) < 1e-8
    rows = F.fractional_values(LINEAR, UNIT, 2.0, 2, (0.1, 0.02))
    for eps, v in rows:
        assert abs(v - (2.0 - eps)) < 1e-8
    rows = F.fractional_values(LINEAR, UNIT, 2.0, 3, (1e-3, 1e-5))
    for eps, v in rows:
        closed = 2.0 * (1.0 - (1.0 - eps) / math.log(1.0 / eps))
        assert abs(v - closed) < 1e-8


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
