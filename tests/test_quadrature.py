import math

import numpy as np
import pytest

from plevylab.quadrature import QuadratureError, integrate, integrate_many


def test_smooth_integral():
    val, err = integrate(np.sin, 0.0, np.pi)
    assert abs(val - 2.0) < 1e-12


def test_kink_split():
    val, _ = integrate(lambda r: np.minimum(1.0, r ** 2), 0.0, 2.0,
                       points=(1.0,))
    assert abs(val - 4.0 / 3.0) < 1e-12


def test_tail_transform():
    e = 0.02
    val, _ = integrate(lambda r: np.power(r, e - 2.0), 1.0, math.inf,
                       decay_exponent=2.0 - e)
    assert abs(val - 1.0 / (1.0 - e)) < 1e-12


# (integrand, a, b, options, starting regions of each pool, nodes, value)
# with the nodes and values of the driver that called the integrand once per
# panel; an infinite range is two pools, the finite part and the 1/t tail
DRIVER_CASES = {
    "sqrt": (np.sqrt, 0.0, 1.0, {}, (1,), 1110, "0x1.5555555555879p-1"),
    "runge": (lambda x: 1.0 / (1.0 + 100.0 * x * x), -1.0, 2.0,
              dict(points=(0.5,)), (2,), 480, "0x1.3260954a5702cp-2"),
    "tail": (lambda r: np.power(r, -1.5) / (1.0 + 1.0 / r), 0.5, math.inf,
             dict(points=(3.0,), decay_exponent=1.5), (1, 1), 180,
             "0x1.e91f42805715cp+0"),
}


@pytest.mark.parametrize("case", sorted(DRIVER_CASES))
def test_one_integrand_call_per_region_and_per_bisection(case):
    f, a, b, options, starts, nodes, value = DRIVER_CASES[case]
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    got, _ = integrate(counted, a, b, **options)
    assert got.hex() == value
    assert sum(sizes) == nodes
    # a pool opens with one call on the 30 nodes of each starting region,
    # then a bisection takes both its halves
    assert sizes[0] == 30 * starts[0]
    bisections = (nodes - 30 * sum(starts)) // 60
    assert sorted(sizes) == sorted([30 * k for k in starts]
                                   + [60] * bisections)


def test_contiguous_regions_of_one_integrand_share_a_call():
    # the four regions start in one call
    sizes = []

    def counted(x):
        sizes.append(x.size)
        return np.sin(x)

    got, _ = integrate(counted, 0.0, 1.0, points=(0.125, 0.25, 0.5))
    assert abs(got - (1.0 - math.cos(1.0))) < 1e-12
    assert sizes == [120]


def test_divergent_integral_raises():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda r: 1.0 / r, 0.0, 1.0, abs_tol=1e-10)
    # the failure carries the achieved error estimate
    assert info.value.achieved > 0
    # a square wave with 10^4 jumps needs more than DEFAULT_MAX_PANELS panels
    with pytest.raises(QuadratureError, match="stalled") as info:
        integrate(lambda x: np.sign(np.sin(3e4 * x)), 0.0, 1.0,
                  abs_tol=1e-10)
    assert 0 < info.value.achieved < math.inf


def test_empty_range_is_zero():
    # a = inf recursed into the tail branch until RecursionError
    calls = []

    def f(x):
        calls.append(x.size)
        return x

    assert integrate(f, math.inf, math.inf) == (0.0, 0.0)
    assert integrate(f, 2.0, 1.0, decay_exponent=3.0) == (0.0, 0.0)
    assert calls == []


def test_divergent_tail_hint_raises():
    with pytest.raises(QuadratureError, match="decay exponent 1 <= 1"):
        integrate(lambda r: 1.0 / r, 1.0, math.inf, decay_exponent=1.0)


def test_tail_power_map_raises_where_a_node_collapses_to_infinity():
    # the same collapse in t = 1/r: this read 500.00000000005497 for the
    # exact 1000
    with pytest.raises(QuadratureError, match="alpha=0.001"):
        integrate(lambda r: r ** -1.001, 1.0, math.inf, decay_exponent=1.001)


def _inv_cube(r):
    return r ** -3


def test_infinite_upper_limit_is_finite_part_plus_tail():
    val, err = integrate(_inv_cube, 0.5, math.inf, points=(0.7, 2.0),
                         decay_exponent=3.0)
    assert abs(val - 2.0) < 1e-12
    # the finite part stops at max(a, points, 1), the tail map takes over
    near, near_err = integrate(_inv_cube, 0.5, 2.0, points=(0.7,))
    tail, tail_err = integrate(_inv_cube, 2.0, math.inf, decay_exponent=3.0)
    assert val == near + tail
    assert err == near_err + tail_err


def test_infinite_upper_limit_without_decay_hint():
    val, _ = integrate(lambda r: np.exp(-r), 0.0, math.inf)
    assert abs(val - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# lock-step batches


def _kinked(decay):
    """Problem i integrates a profile with a kink at x = 0.3 + i / 4, which
    no cut point names, that decays like x**(-decay) at infinity
    (exponentially for ``decay = None``)."""
    def f(i, x):
        dist = 1.0 + np.abs(x - 0.3 - 0.25 * i)
        if decay is None:
            return np.exp(1.0 - dist)
        return dist ** -decay
    return f


# (a, b, points): a finite range with a kink, infinite ranges whose finite
# part is (0.5, 3) or empty, and two empty ranges
_PROBLEMS = [(0.0, 2.0, (0.25, 1.5)), (0.5, math.inf, (0.5, 3.0)),
             (2.5, math.inf, ()), (1.0, 1.0, ()), (3.0, 2.0, (2.5,)),
             (-1.0, 0.75, (0.75, -0.5))]


# cut points the panel build must drop or merge, each on a finite range
# and on an infinite one: repeated points, points outside the range,
# points on an end (or on far = max(a, points, 1)), and none at all
_EDGE_CASES = [(0.0, 2.0, (1.25, 0.5, 0.5)), (0.0, math.inf, (3.0, 0.5, 3.0)),
               (0.25, 1.5, (-1.0, 9.0, 0.75)),
               (0.25, math.inf, (-1.0, 9.0, 0.75)),
               (0.5, 1.75, (1.75, 1.0, 0.5)), (0.5, math.inf, (0.5, 1.0)),
               (0.0, 1.0, ()), (2.0, math.inf, ())]


@pytest.mark.parametrize("decay, problems", [
    *(pytest.param(d, _PROBLEMS, id=str(d)) for d in (1.5, 3.0, None)),
    *(pytest.param(d, _EDGE_CASES, id="%s-cut-points" % d)
      for d in (1.5, 3.0, None))])
def test_integrate_many_matches_integrate(decay, problems):
    kinked = _kinked(decay)
    nodes = []      # abscissae evaluated, batched and one by one

    def f(i, x):
        nodes.append(x.size)
        return kinked(i, x)

    a, b, pts = zip(*problems)
    tol = dict(abs_tol=1e-11, rel_tol=1e-10)
    vals, errs = integrate_many(f, a, b, pts, **tol)
    batched = sum(nodes)
    # the same points as one NaN-padded array, padding in any slot
    grid = np.full((len(pts), 5), np.nan)
    for i, p in enumerate(pts):
        grid[i, 5 - len(p):] = p
    padded = integrate_many(f, a, b, grid, **tol)
    assert padded[0].tobytes() == vals.tobytes()
    assert padded[1].tobytes() == errs.tobytes()
    one_by_one = 0
    for i, (lo, hi, p) in enumerate(problems):
        nodes.clear()
        ref, ref_err = integrate(lambda x, i=i: f(np.full(x.shape, i), x),
                                 lo, hi, points=p, **tol)
        one_by_one += sum(nodes)
        assert abs(vals[i] - ref) <= 1e-15 * abs(ref), i
        # the same panels leave the same error estimate, up to round-off
        assert abs(errs[i] - ref_err) <= 1e-4 * ref_err + 1e-15, i
        alone = integrate_many(lambda j, x, i=i: f(np.full(j.shape, i), x),
                               [lo], [hi], [p], **tol)
        assert (alone[0][0], alone[1][0]) == (vals[i], errs[i]), i
    # the same panels, none of them empty
    assert batched == one_by_one


def test_integrate_many_problems_are_independent():
    f = _kinked(1.5)
    a, b, pts = zip(*_PROBLEMS)
    together, _ = integrate_many(f, a, b, pts)
    for i, (lo, hi, p) in enumerate(_PROBLEMS):
        alone, _ = integrate_many(lambda j, x, i=i: f(np.full(j.shape, i), x),
                                  [lo], [hi], [p])
        assert alone[0] == together[i]
    order = [5, 2, 0, 4, 1, 3]
    shuffled, _ = integrate_many(lambda j, x: f(np.take(order, j), x),
                                 [a[k] for k in order], [b[k] for k in order],
                                 [pts[k] for k in order])
    assert list(shuffled) == [together[k] for k in order]


def test_integrate_many_stall_names_the_range():
    # problem 1, a square wave with 10^4 jumps, runs out of panels
    def f(i, x):
        return np.where(i == 0, np.cos(x), np.sign(np.sin(3e4 * x)))

    with pytest.raises(QuadratureError, match="stalled") as info:
        integrate_many(f, [0.0, 0.0], [1.0, 1.0], [(), ()], abs_tol=1e-10)
    assert "(0, 1)" in str(info.value)
    assert 0 < info.value.achieved < math.inf


def test_integrate_many_takes_a_tolerance_per_problem():
    f = _kinked(1.5)
    a, b, pts = zip(*_PROBLEMS)
    tols = [(1e-6, 1e-11, 1e-9)[i % 3] for i in range(len(_PROBLEMS))]
    vals, errs = integrate_many(f, a, b, pts, abs_tol=np.array(tols))
    for i, (lo, hi, p) in enumerate(_PROBLEMS):
        alone, alone_err = integrate_many(
            lambda j, x, i=i: f(np.full(j.shape, i), x), [lo], [hi], [p],
            abs_tol=tols[i])
        assert alone[0] == vals[i], i
        assert alone_err[0] == errs[i], i
    # a scalar tolerance is the same as that tolerance for every problem
    scalar = integrate_many(f, a, b, pts, abs_tol=1e-9)
    spread = integrate_many(f, a, b, pts, abs_tol=np.full(len(a), 1e-9))
    assert list(scalar[0]) == list(spread[0])
    assert list(scalar[1]) == list(spread[1])


def test_integrate_many_errors_name_the_problem():
    def wave(i, x):
        return np.where(i == 1, np.sign(np.sin(3e4 * x)), np.cos(x))

    with pytest.raises(QuadratureError, match="stalled") as info:
        integrate_many(wave, [0.0] * 3, [1.0] * 3, [()] * 3, abs_tol=1e-10)
    assert info.value.problem == 1
    assert 0 < info.value.achieved < math.inf

    def root(i, x):
        return np.where(i == 2, np.sqrt(x - 0.5), 1.0)

    with pytest.raises(QuadratureError, match="non-finite") as info:
        integrate_many(root, [0.0] * 3, [1.0] * 3, [()] * 3)
    assert info.value.problem == 2


def test_integrate_many_infinite_end_raises_without_a_warning():
    # the panel (-inf, 0) has non-finite abscissae; forming them must not
    # leak a RuntimeWarning (an error under the test settings) before the
    # quadrature reports the non-finite integrand
    with pytest.raises(QuadratureError,
                       match=r"non-finite integrand on \(-inf, 0\)") as info:
        integrate_many(lambda i, x: np.exp(-x * x), [-math.inf], [0.0],
                       [()])
    assert info.value.problem == 0
