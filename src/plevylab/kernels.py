"""Radial kernel families with unit (1 ^ |h|^p)-mass, and their calculus.

A kernel is a radial density ``nu`` on R^d \\ {0} subject to the integrability
condition ``int (1 ^ |h|^p) nu(h) dh < infty`` and normalized so that integral
equals one.  Families indexed by a concentration parameter ``eps`` are provided:

``stable``            a_{eps,d,p} |h|^(-d-p+eps), full support
``rescaled``          three-piece rescaling of a normalized base kernel
``truncated_power``   (d+b)/(S eps^(d+b)) |h|^(b-p) on the ball B_eps
``smoothed_power``    (|h|+eps)^b |h|^(-p) / (S b_eps) on B_eps0
                      (b = -d switches to the log-normalized variant)
``log_limit``         |h|^(-d-p) / (S log(eps0/eps)) on the annulus eps<|h|<eps0

``S`` is the sphere area |S^{d-1}|.  Each family writes its density once, in
log space (``log_profile``); every consumer reads it through
``RadialKernel.log_density``, which also accepts a plain ``profile`` from
custom kernels.  Normalization, tail mass, weighted moments, test-function
pairings and the difference operator are all one radial integral of the
weighted density (``radial_integral``): a single adaptive quadrature call
split at the weight kink r = 1 and the kernel's breakpoints (and once per
decade up to a finite upper limit far above them), with a power
substitution at the origin and, for full-support kernels, the 1/t map on
the unbounded tail.
Offset sampling draws the radius through the inverse CDF of the weighted
law ``S (1 ^ r^p) nu(r) r^{d-1} dr`` (closed form where available,
otherwise a 4096-node log-spaced table inverted by ``_monotone_cubic``, a
numpy Fritsch-Butland PCHIP interpolant that agrees bit for bit with
SciPy's ``PchipInterpolator``) and the direction uniformly on the sphere.
The inverse CDF is the one sampling fact a kernel carries; the mass below
``r`` is ``radial_integral(kernel, 0, r)``.  Custom kernels get a table
from ``with_tabulated_sampler``.
Kernels are immutable; samplers take a caller-owned generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import sphere_area
from .geometry import _row_sq_norms
from .quadrature import QuadratureError, fixed_gauss, integrate

NORMALIZATION_ACCEPT_TOL = 1e-6   # accepted deviation from unit mass
NORMALIZATION_REQUEST_TOL = 1e-10  # accuracy requested from quadrature
DEFAULT_EPS_GRID = (0.4, 0.2, 0.1, 0.05, 0.02)
_TABLE_NODES = 4096


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class RadialKernel:
    """One radial kernel: density, structure hints, and sampling data.

    The density is ``log_profile`` (log nu(r), -inf off the support): power
    laws exceed the float range long before the weighted density does, so
    every consumer reads it in log space through :meth:`log_density`.
    Custom kernels may give ``profile`` (nu(r) itself) instead; a kernel
    needs one of the two.  A density that is NaN at a radius in (0, inf)
    raises :class:`KernelError` when it is read.

    The kernel lives on the annulus ``inner_radius < r <= support_radius``;
    the neutral values 0 and ``math.inf`` mean no hole and full support.
    ``origin_exponent`` is gamma with ``nu(r) ~ r^(-gamma)`` as r -> 0 and
    ``tail_exponent`` is q with ``nu(r) ~ r^(-q)`` at infinity; both feed the
    singular quadrature and may be None for custom kernels (adaptive
    quadrature then detects divergence on its own).  ``breakpoints`` lists
    radii where the density is not smooth (support edges included).

    A closed-form core ``nu(r) = origin_coefficient * r^(-origin_exponent)``
    (exact, or to ~1e-12) on ``r < origin_pure_radius`` lets integrators
    treat the singular core in closed form below floating point resolution.
    The neutral ``origin_pure_radius = 0`` claims no core; a positive one
    needs both the coefficient and the exponent.
    """

    dim: int
    p_exp: float
    profile: object = None
    support_radius: float = math.inf
    inner_radius: float = 0.0
    origin_exponent: float = None
    tail_exponent: float = None
    breakpoints: tuple = ()
    radial_cdf_inv: object = None
    family_tag: str = "custom"
    eps: float = None
    params: dict = field(default_factory=dict)
    log_profile: object = None
    origin_coefficient: float = None
    origin_pure_radius: float = 0.0

    def __post_init__(self):
        if not (self.log_profile or self.profile):
            raise KernelError("kernel needs a log_profile or a profile")
        if self.origin_pure_radius > 0.0 and (
                self.origin_coefficient is None
                or self.origin_exponent is None):
            raise KernelError("a closed-form core (origin_pure_radius > 0) "
                              "needs origin_coefficient and origin_exponent")

    def log_density(self, r):
        """log nu(r); -inf where the kernel vanishes."""
        if self.log_profile is not None:
            return self.log_profile(r)
        r = np.asarray(r, dtype=float)
        vals = np.asarray(self.profile(r), dtype=float)
        # NaN at r = 0 or inf is left to the quadrature maps, which drop
        # those endpoints; anywhere else it would be read as nu = 0
        if np.any((vals < 0.0) | (np.isnan(vals) & (r > 0.0)
                                  & (r < math.inf))):
            raise KernelError("kernel profile is negative or NaN")
        with np.errstate(divide="ignore"):
            return np.log(vals)

    def weighted_radial_density(self, r, *, weight_beta=None):
        """S^{d-1} area times (1 ^ r^beta) nu(r) r^(d-1) (beta defaults to p).

        Evaluated in log space, so singular densities never overflow under
        the vanishing weight.
        """
        r = np.asarray(r, dtype=float)
        beta = self.p_exp if weight_beta is None else weight_beta
        area = sphere_area(self.dim)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            lr = np.log(r)
            expo = self.log_density(r) + np.minimum(0.0, beta * lr)
            if self.dim > 1:
                expo = expo + (self.dim - 1) * lr
            out = area * np.exp(expo)
        nan = np.isnan(expo)
        # NaN at r = 0 or inf is an artifact of the quadrature maps, which
        # drop those endpoints; anywhere else it would be read as nu = 0
        if nan.any() and np.any(nan & (r > 0.0) & (r < math.inf)):
            raise KernelError("kernel log density is NaN at a radius in "
                              "(0, inf)")
        return np.where(np.isfinite(out), out, 0.0)

    def spec(self):
        out = {"family": self.family_tag, "d": str(self.dim),
               "p": repr(self.p_exp)}
        if self.eps is not None:
            out["eps"] = repr(self.eps)
        out.update({k: repr(v) for k, v in self.params.items()})
        return out


def radial_integral(kernel, lo, hi, *, weight_beta=None, factor=None,
                    abs_tol):
    """Integral of S (1 ^ r^beta) nu(r) r^(d-1) over (lo, hi].

    ``hi = math.inf`` integrates to infinity (full-support kernels), using
    the tail-decay hint when present; a finite ``hi`` more than a decade
    above ``lo``, 1 and the breakpoints below it gets a split point per
    decade.  The range is clipped to the kernel's annulus
    ``(inner_radius, support_radius)``.  ``factor``, when given, is a
    radial function multiplying the weighted density.
    """
    d = kernel.dim
    beta = kernel.p_exp if weight_beta is None else weight_beta

    def f(r):
        dens = kernel.weighted_radial_density(r, weight_beta=beta)
        return dens if factor is None else factor(r) * dens

    lo = max(lo, kernel.inner_radius)
    hi = min(hi, kernel.support_radius)
    alpha0 = None
    if lo == 0.0 and kernel.origin_exponent is not None:
        alpha0 = d + beta - kernel.origin_exponent
        if alpha0 <= 0.0:
            raise QuadratureError(
                "radial integral diverges at the origin "
                "(weighted exponent %.3g <= 0)" % alpha0)
    q = kernel.tail_exponent
    # split at the (1 ^ r^beta) weight kink and the profile's breakpoints;
    # a finite hi more than a decade above the last split point is split
    # once per decade, so that no panel's nodes all sit where a decaying
    # tail has already vanished (both Gauss rules would agree on 0)
    points = (1.0, *kernel.breakpoints)
    far = max(lo, 1.0, *(c for c in points if c < hi))
    while far * 10.0 < hi < math.inf:
        far *= 10.0
        points += (far,)
    val, _ = integrate(f, lo, hi, points=points,
                       alpha_left=alpha0,
                       decay_exponent=None if q is None else q - (d - 1),
                       abs_tol=abs_tol)
    return val


def normalization(kernel, *, abs_tol=NORMALIZATION_REQUEST_TOL):
    """The p-Levy unit-mass integral int (1 ^ |h|^p) nu(h) dh.

    Divergent profiles raise :class:`QuadratureError` instead of returning a
    number.
    """
    return radial_integral(kernel, 0.0, math.inf, abs_tol=abs_tol)


def mass_outside(kernel, delta, *, abs_tol=NORMALIZATION_REQUEST_TOL):
    """Weighted tail mass int_{|h| > delta} (1 ^ |h|^p) nu(h) dh."""
    if delta <= 0:
        raise KernelError("delta must be positive")
    return radial_integral(kernel, delta, math.inf, abs_tol=abs_tol)


def weighted_moment(kernel, beta, big_r, *, abs_tol=NORMALIZATION_REQUEST_TOL):
    """Truncated moment int_{|h| <= R} (1 ^ |h|^beta) nu(h) dh for beta >= p."""
    if beta < kernel.p_exp:
        raise KernelError("moment defined for beta >= p")
    if big_r <= 0:
        raise KernelError("R must be positive")
    return radial_integral(kernel, 0.0, big_r, weight_beta=beta,
                           abs_tol=abs_tol)


def check_normalized(kernel, *, tol=NORMALIZATION_ACCEPT_TOL):
    mass = normalization(kernel)
    if abs(mass - 1.0) > tol:
        raise KernelError(
            "kernel is not normalized: measured mass %.12g (|mass-1| > %g)"
            % (mass, tol))
    return mass


# ---------------------------------------------------------------------------
# sampling


# buckets of the guide table of ``_locator``
_GUIDE_BUCKETS = 1 << 16


def _locator(x):
    """The segment index ``min(searchsorted(x, v, "right") - 1, x.size - 2)``
    of each value ``v``, x strictly increasing.

    A guide table over ``[x[0], x[-1]]`` (``_GUIDE_BUCKETS`` equal buckets,
    each holding the segment of its left edge) gives a first guess ``i``.
    The guess is kept where ``x[i] <= v < x[i+1]`` (or ``i`` is the last
    segment and ``x[i] <= v``), which is exactly where it equals the binary
    search; the other values, in a bucket with a node inside it or rounded
    across a bucket edge, and any value outside the table, NaN included,
    take the binary search.  The result is the binary search's index for
    every value, whatever the guide holds.
    """
    last = x.size - 2
    lo, width = x[0], x[-1] - x[0]
    scale = _GUIDE_BUCKETS / width
    edges = lo + np.arange(_GUIDE_BUCKETS) * (width / _GUIDE_BUCKETS)
    guide = np.clip(np.searchsorted(x, edges, side="right") - 1, 0, last)

    def locate(v):
        shape, v = np.shape(v), np.ravel(v)
        b = np.subtract(v, lo)
        b *= scale
        # fmax/fmin send NaN to bucket 0, where the check below rejects it
        np.fmax(b, 0.0, out=b)
        np.fmin(b, _GUIDE_BUCKETS - 1, out=b)
        i = guide[b.astype(np.intp)]
        ok = x[i] <= v
        ok &= (v < x[i + 1]) | (i == last)
        miss = np.flatnonzero(~ok)
        if miss.size:
            i[miss] = np.minimum(
                np.searchsorted(x, v[miss], side="right") - 1, last)
        return i.reshape(shape)

    return locate


def _monotone_cubic(x, y):
    """Monotone piecewise cubic through the nodes (x, y), x strictly
    increasing: Fritsch-Butland PCHIP (SIAM J. Sci. Comput. 5, 1984).

    Returns the interpolant as a function of an array in [x[0], x[-1]].
    Slopes, coefficients and evaluation order follow SciPy's
    ``PchipInterpolator``, whose values it reproduces bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    dk = np.empty_like(y)
    if x.size == 2:
        dk[:] = m[0]
    else:
        # weighted harmonic mean of the neighbouring secants, 0 where they
        # differ in sign or either is flat
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        # one-sided three-point end slopes, limited to keep the shape
        for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                    (-1, h[-1], h[-2], m[-1], m[-2])):
            d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(d) != np.sign(m0):
                d = 0.0
            elif np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
                d = 3.0 * m0
            dk[end] = d
    t = (dk[:-1] + dk[1:] - 2.0 * m) / h
    c0, c1, c2, c3 = t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]
    locate = _locator(x)

    def evaluate(v):
        i = locate(v)
        s = v - x[i]
        s2 = s * s
        return c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    return evaluate


def with_tabulated_sampler(kernel):
    """The kernel with a tabulated inverse radial CDF attached as sampling
    data (for custom compactly supported kernels).

    The table of :func:`_cdf_table` is inverted by the monotone cubic
    ``_monotone_cubic`` (SciPy's PCHIP, bit for bit).
    """
    cdf, nodes = _cdf_table(kernel)
    inv = _monotone_cubic(cdf, nodes)
    r_min, r_max = nodes[0], nodes[-1]

    def inv_fn(v):
        v = np.asarray(v, dtype=float)
        return np.clip(inv(np.clip(v, 0.0, 1.0)), r_min, r_max)

    return replace(kernel, radial_cdf_inv=inv_fn)


def _cdf_table(kernel):
    """``(cdf, radii)``: the weighted radial CDF at strictly increasing
    values, from 0 to 1.

    The CDF is tabulated at log-spaced nodes from ``support_radius * 1e-12``
    (or the inner radius, if larger) to the support radius, the mass below
    the first node added by :func:`radial_integral`.  Non-finite or
    non-monotone tables are reported as construction failures.
    """
    lo = kernel.inner_radius
    hi = kernel.support_radius
    if not math.isfinite(hi):
        raise KernelError("cdf tabulation needs a compactly supported "
                          "profile; supply a closed-form inverse cdf "
                          "instead")
    r_lo = max(lo, hi * 1e-12)
    nodes = np.geomspace(r_lo, hi, _TABLE_NODES)
    if lo > 0:
        nodes = np.concatenate(([lo], nodes[nodes > lo]))
    segs = fixed_gauss(kernel.weighted_radial_density, nodes[:-1],
                       nodes[1:], n=12)
    cdf = np.concatenate(([0.0], np.cumsum(segs)))
    cdf += radial_integral(kernel, 0.0, nodes[0],
                           abs_tol=NORMALIZATION_REQUEST_TOL)
    if not np.all(np.isfinite(cdf)):
        raise KernelError("cdf tabulation produced non-finite values")
    total = cdf[-1]
    if not (abs(total - 1.0) <= 1e-4):
        raise KernelError("cdf tabulation mass %.6g far from 1" % total)
    cdf /= total
    cdf = np.clip(cdf, 0.0, 1.0)
    keep = np.concatenate(([True], np.diff(cdf) > 0))
    cdf_k, nodes_k = cdf[keep], nodes[keep]
    if cdf_k[0] > 0.0:
        cdf_k = np.concatenate(([0.0], cdf_k))
        nodes_k = np.concatenate(([max(lo, r_lo * 0.5)], nodes_k))
    return cdf_k, nodes_k


def _sampling_data(fn):
    if fn is None:
        raise KernelError("kernel carries no sampling data; wrap custom "
                          "kernels with with_tabulated_sampler")
    return fn


def sample_directions(rng, size, dim):
    """Uniform points on S^{dim-1}; normalized Gaussians for dim >= 2.

    The squared norms add each row in the order ``np.linalg.norm`` does,
    and the rows are divided in place.
    """
    if dim == 1:
        signs = rng.integers(0, 2, size=(size, 1)) * 2.0
        signs -= 1.0
        return signs
    g = rng.normal(size=(size, dim))
    norms = _row_sq_norms(g)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    # a column at a time: a broadcast over rows runs d-long inner loops
    for j in range(dim):
        g[:, j] /= norms
    return g


def sample_offset_with_radii(kernel, rng, size=1):
    """Draw offsets h in R^d from the kernel's unit-mass weighted law.

    Returns ``(h, radii)``; the radii are the exact sampled values (the
    squared-norm route loses them to underflow for very concentrated
    kernels).  All ``size`` radius uniforms are drawn before the
    directions.
    """
    return _offsets_from_uniforms(kernel, rng.random(size), rng)


def _offsets_from_uniforms(kernel, u, rng):
    """``(h, radii)`` for the radius uniforms ``u``: the radii through the
    kernel's inverse CDF, then one direction per radius drawn from ``rng``.

    The Monte Carlo estimators call this once per block of their uniforms;
    consecutive blocks draw the directions one whole draw would (for
    d = 1, blocks of even length keep ``integers``' 32-bit halves aligned).
    """
    radii = np.asarray(_sampling_data(kernel.radial_cdf_inv)(u), dtype=float)
    if not np.all(np.isfinite(radii)):
        raise KernelError("sampler produced non-finite radii")
    h = sample_directions(rng, radii.size, kernel.dim)
    for j in range(kernel.dim):
        h[:, j] *= radii
    return h, radii


# ---------------------------------------------------------------------------
# family constructors


def _check_dim_p(dim, p_exp):
    if not dim >= 1:
        raise KernelError("dim must be >= 1")
    if not 1.0 <= p_exp < math.inf:
        raise KernelError("p must be finite and >= 1 (got %r)" % (p_exp,))


def make_stable(dim, p_exp, eps):
    """Fractional-type kernel a_{eps,d,p} |h|^(-d-p+eps) with closed forms.

    Valid for 0 < eps < p; outside that window the normalizer
    a = eps (p - eps) / (p S) degenerates and the construction is rejected.
    The weighted radial law is piecewise power: ~ r^(eps-1) inside the unit
    ball and ~ r^(eps-p-1) outside, so its inverse CDF is explicit.
    """
    _check_dim_p(dim, p_exp)
    if not 0.0 < eps < p_exp:
        raise KernelError("stable family needs 0 < eps < p "
                          "(got eps=%g, p=%g)" % (eps, p_exp))
    area = sphere_area(dim)
    a = eps * (p_exp - eps) / (p_exp * area)
    power = -dim - p_exp + eps
    log_a = math.log(a)

    def log_profile(r):
        return log_a + power * np.log(np.asarray(r, dtype=float))

    m1 = (p_exp - eps) / p_exp  # weighted mass of the unit ball

    def cdf_inv(v):
        # both branches over every sample, each formed in place in its own
        # buffer: gathering each branch's samples costs more than the
        # second power when the branches mix
        v = np.asarray(v, dtype=float)
        lo = np.clip(v, 0.0, m1, out=np.empty_like(v))
        lo /= m1
        np.power(lo, 1.0 / eps, out=lo)
        # 1 - (v - m1) p / eps rewritten as (1 - v) p / eps: stable near v=1
        hi = np.subtract(1.0, v, out=np.empty_like(v))
        np.maximum(hi, 1e-300, out=hi)
        hi *= p_exp
        hi /= eps
        np.power(hi, -1.0 / (p_exp - eps), out=hi)
        np.copyto(hi, lo, where=v <= m1)
        return hi

    return RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        origin_exponent=dim + p_exp - eps, tail_exponent=dim + p_exp - eps,
        origin_coefficient=a, origin_pure_radius=math.inf,
        radial_cdf_inv=cdf_inv, family_tag="stable", eps=eps)


def make_rescaled(base, eps):
    """Three-piece rescaling of a normalized base kernel.

    nu_eps(h) = eps^(-d-p) nu(h/eps)          on |h| <= eps
              = eps^(-d) |h|^(-p) nu(h/eps)   on eps < |h| <= 1
              = eps^(-d) nu(h/eps)            on |h| > 1

    preserving the unit mass exactly.  The weighted radial law of the
    rescaled kernel is the base law contracted by eps, so the base inverse
    CDF is reused: cdf_inv(v) = eps cdf_inv_base(v).
    """
    if not isinstance(base, RadialKernel):
        raise KernelError("base must be a RadialKernel")
    if not 0.0 < eps <= 1.0:
        raise KernelError("rescaled family needs 0 < eps <= 1 (got eps=%g)"
                          % eps)
    check_normalized(base)
    d, p = base.dim, base.p_exp
    base_log = base.log_density
    log_eps = math.log(eps)

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        z = base_log(r / eps)
        return np.where(
            r <= eps, -(d + p) * log_eps + z,
            np.where(r <= 1.0, -d * log_eps - p * np.log(r) + z,
                     -d * log_eps + z))

    base_inv = _sampling_data(base.radial_cdf_inv)

    def cdf_inv(v):
        return eps * np.asarray(base_inv(v), dtype=float)

    # the base core, contracted by eps, holds up to the first rescaling seam
    origin_pure = eps * min(1.0, base.origin_pure_radius)
    origin_c = None if origin_pure == 0.0 else \
        base.origin_coefficient * eps ** (base.origin_exponent - d - p)
    breaks = {eps, 1.0}
    breaks.update(eps * b for b in base.breakpoints)
    return RadialKernel(
        dim=d, p_exp=p, log_profile=log_profile,
        support_radius=eps * base.support_radius,
        inner_radius=eps * base.inner_radius,
        origin_exponent=base.origin_exponent,
        tail_exponent=base.tail_exponent,
        origin_coefficient=origin_c, origin_pure_radius=origin_pure,
        breakpoints=tuple(sorted(breaks)), radial_cdf_inv=cdf_inv,
        family_tag="rescaled", eps=eps,
        params={"base": base.family_tag, "base_eps": base.eps})


def make_truncated_power(dim, p_exp, beta, eps):
    """Compact kernel (d+beta)/(S eps^(d+beta)) |h|^(beta-p) on B_eps."""
    _check_dim_p(dim, p_exp)
    if not -dim < beta < math.inf:
        raise KernelError("truncated power needs finite beta > -d (got %r; "
                          "beta <= -d is not integrable at the origin)"
                          % (beta,))
    if not 0.0 < eps < 1.0:
        raise KernelError("truncated power needs 0 < eps < 1 (got eps=%g)"
                          % eps)
    area = sphere_area(dim)
    denom = area * eps ** (dim + beta)
    c = (dim + beta) / denom if denom > 0.0 else math.inf
    if c == math.inf:
        raise KernelError("truncated power needs eps^(d+beta) inside the "
                          "float range (beta=%r is too large for eps=%g, "
                          "d=%d)" % (beta, eps, dim))
    log_c = math.log(c)

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= eps, log_c + (beta - p_exp) * np.log(r),
                        -np.inf)

    expo = dim + beta

    def cdf_inv(v):
        v = np.asarray(v, dtype=float)
        return eps * np.power(np.clip(v, 0.0, 1.0), 1.0 / expo)

    return RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        support_radius=eps, origin_exponent=p_exp - beta,
        origin_coefficient=c, origin_pure_radius=eps,
        breakpoints=(eps,), radial_cdf_inv=cdf_inv,
        family_tag="truncated_power", eps=eps, params={"beta": beta})


def make_log_limit(dim, p_exp, eps, eps0):
    """Annulus kernel |h|^(-d-p) / (S log(eps0/eps)) on eps < |h| < eps0."""
    _check_dim_p(dim, p_exp)
    if not 0.0 < eps < eps0 < 1.0:
        raise KernelError("log limit needs 0 < eps < eps0 < 1 (got eps=%g, "
                          "eps0=%g)" % (eps, eps0))
    area = sphere_area(dim)
    c = 1.0 / (area * math.log(eps0 / eps))
    log_c = math.log(c)

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where((r > eps) & (r <= eps0),
                        log_c - (dim + p_exp) * np.log(r), -np.inf)

    def cdf_inv(v):
        v = np.asarray(v, dtype=float)
        return eps * np.power(eps0 / eps, np.clip(v, 0.0, 1.0))

    return RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        support_radius=eps0, inner_radius=eps, breakpoints=(eps, eps0),
        radial_cdf_inv=cdf_inv, family_tag="log_limit", eps=eps,
        params={"eps0": eps0})


def smoothing_constant(dim, beta, eps, eps0, *, abs_tol=1e-13):
    """The normalizer b_eps of the smoothed-power family, two ways.

    Primary route: deterministic quadrature of the t-integral
    ``eps^(d+beta) int_{eps/(eps+eps0)}^1 t^(-d-beta-1) (1-t)^(d-1) dt``.
    The result is cross-checked against the direct radial integral
    ``int_0^eps0 (r+eps)^beta r^(d-1) dr``; disagreement raises, so a
    transcription error cannot pass silently.  At beta = -d both integrals
    equal ``b_eps |log eps|`` (the log-normalized variant), and only the
    final division by ``|log eps|`` differs.
    """
    if not 0.0 < eps < eps0 < 1.0:
        raise KernelError("needs 0 < eps < eps0 < 1 (got eps=%g, eps0=%g)"
                          % (eps, eps0))
    if beta < -dim:
        raise KernelError("needs beta >= -d")
    t0 = eps / (eps + eps0)

    def tf(t):
        return np.power(t, -dim - beta - 1.0) * np.power(1.0 - t, dim - 1)
    tval, _ = integrate(tf, t0, 1.0, abs_tol=abs_tol)
    # b_eps, or b_eps |log eps| for beta = -d (where eps^(d+beta) = 1)
    scaled = eps ** (dim + beta) * tval

    def rf(r):
        return np.power(r + eps, beta) * np.power(r, dim - 1.0)
    direct, _ = integrate(rf, 0.0, eps0, abs_tol=abs_tol)
    if abs(scaled - direct) > 1e-8 * max(1.0, abs(direct)):
        raise QuadratureError(
            "b_eps cross-check failed: t-integral %.12g vs radial %.12g"
            % (scaled, direct), achieved=abs(scaled - direct))
    return scaled / abs(math.log(eps)) if beta == -dim else scaled


def make_smoothed_power(dim, p_exp, beta, eps, eps0):
    """Mollified power kernel (|h|+eps)^beta |h|^(-p) / (S b_eps) on B_eps0.

    ``beta = -d`` selects the log-normalized limiting variant with an extra
    ``1/|log eps|`` factor.  No closed-form inverse CDF exists here, so
    sampling goes through the tabulated inverse.
    """
    _check_dim_p(dim, p_exp)
    if beta < -dim:
        raise KernelError("smoothed power needs beta >= -d")
    b = smoothing_constant(dim, beta, eps, eps0)
    area = sphere_area(dim)
    denom = area * b * (abs(math.log(eps)) if beta == -dim else 1.0)
    log_denom = math.log(denom)

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= eps0,
                        beta * np.log(r + eps) - p_exp * np.log(r)
                        - log_denom, -np.inf)

    return with_tabulated_sampler(RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        support_radius=eps0, origin_exponent=float(p_exp),
        origin_coefficient=eps ** beta / denom,
        origin_pure_radius=1e-7 * eps, breakpoints=(eps0,),
        family_tag="smoothed_power", eps=eps,
        params={"beta": beta, "eps0": eps0}))


# ---------------------------------------------------------------------------
# eps -> kernel families

# every family's parameters and their defaults, stated once
FAMILY_PARAMS = {
    "stable": {},
    "rescaled": {"base_eps": 0.5},
    "truncated_power": {"beta": 0.0},
    "smoothed_power": {"beta": -0.5, "eps0": 0.5},
    "log_limit": {"eps0": 0.5},
}
FAMILY_KINDS = tuple(FAMILY_PARAMS)
FAMILY_PARAM_NAMES = tuple(dict.fromkeys(
    name for params in FAMILY_PARAMS.values() for name in params))


@dataclass(frozen=True)
class KernelFamily:
    """Generator of kernels along a concentration grid.

    ``kind`` is one of :data:`FAMILY_KINDS`; it takes the parameters
    :data:`FAMILY_PARAMS` lists for it, unset ones at their defaults, and no
    others.  ``rescaled`` rescales the stable kernel of order ``base_eps``.
    Every kernel it produces satisfies the unit-mass axiom, and each
    ``make_*`` constructor rejects an eps outside its family's window.  The
    concentration behaviour differs per family (see the package docs), which
    is why each family carries its own default grid inside that window.
    """

    kind: str
    dim: int
    p_exp: float
    beta: float = None
    eps0: float = None
    base_eps: float = None

    def __post_init__(self):
        if self.kind not in FAMILY_PARAMS:
            raise KernelError("unknown family kind %r" % (self.kind,))
        params = FAMILY_PARAMS[self.kind]
        for name in FAMILY_PARAM_NAMES:
            if name in params:
                if getattr(self, name) is None:
                    object.__setattr__(self, name, params[name])
            elif getattr(self, name) is not None:
                raise KernelError("the %s family takes no %s"
                                  % (self.kind, name))

    def kernel(self, eps):
        d, p = self.dim, self.p_exp
        if self.kind == "stable":
            return make_stable(d, p, eps)
        if self.kind == "rescaled":
            return make_rescaled(make_stable(d, p, self.base_eps), eps)
        if self.kind == "truncated_power":
            return make_truncated_power(d, p, self.beta, eps)
        if self.kind == "smoothed_power":
            return make_smoothed_power(d, p, self.beta, eps, self.eps0)
        # log_limit: __post_init__ admits no other kind
        return make_log_limit(d, p, eps, self.eps0)

    def default_grid(self):
        # annulus kernels only concentrate once eps drops below the probe
        # radii, hence the lower grid; the others stop below their window's
        # top (stable's window (0, p) contains (0, 1), as p >= 1)
        if self.kind == "log_limit":
            return (0.08, 0.04, 0.02, 0.01, 0.005)
        top = self.eps0 if self.kind == "smoothed_power" else 1.0
        return tuple(e for e in DEFAULT_EPS_GRID if e < top)

    def spec(self):
        out = {"family": self.kind, "d": str(self.dim), "p": repr(self.p_exp)}
        out.update((name, repr(getattr(self, name)))
                   for name in FAMILY_PARAMS[self.kind])
        return out


def family_from_spec(spec):
    kind = spec["family"]
    # an unknown kind takes no parameters here and KernelFamily rejects it
    params = {name: float(spec[name])
              for name in FAMILY_PARAMS.get(kind, ()) if name in spec}
    return KernelFamily(kind, int(spec.get("d", 1)),
                        float(spec.get("p", 2.0)), **params)


def kernel_from_spec(spec):
    fam = family_from_spec(spec)
    return fam.kernel(float(spec["eps"]))


def default_families(dim=1, p_exp=2.0):
    """The five family kinds with their default parameters."""
    return tuple(KernelFamily(kind, dim, p_exp) for kind in FAMILY_KINDS)
