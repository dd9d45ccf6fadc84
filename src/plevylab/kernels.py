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

The fractional rescalings ``frac_order``, ``frac_ball`` and ``frac_log``
(:func:`_fractional_kernel`) are scaled power windows whose mass tends to
``KernelFamily.mass_limit()``, not one.

``S`` is the sphere area |S^{d-1}|.  ``stable``, ``truncated_power``,
``log_limit`` and the fractional kinds are power windows
``scale |h|^(-gamma)`` on ``cutoff < |h| <= top``, all written by
:func:`_power_window`, which refuses a scale that is not a positive normal
float; ``make_stable`` also refuses an eps that leaves ``d + p - eps`` at
``d + p``.  ``rescaled`` and ``smoothed_power`` write their own density.
Each density is written once, in log space (``log_profile``); every
consumer reads it through ``RadialKernel.log_density``, which also accepts
a plain ``profile`` from custom kernels.  Normalization, tail mass,
weighted moments, test-function pairings and the difference operator are
all one radial integral of the weighted density (``radial_integral``): a
single adaptive quadrature call split at the weight kink r = 1 and the
kernel's breakpoints (and once per decade up to a finite upper limit far
above them), with a power substitution at the origin and, for
full-support kernels, the 1/t map on the unbounded tail.
Offset sampling draws the radius exactly from the weighted law
``S (1 ^ r^p) nu(r) r^{d-1} dr`` and the direction uniformly on the
sphere.  The radial sampler is the one sampling fact a kernel carries:
four families invert the law's CDF in closed form, and ``smoothed_power``
draws by rejection from a dominating density with a closed-form inverse.
The mass below ``r`` is ``radial_integral(kernel, 0, r)``.  Custom kernels
supply their own ``radial_sampler``; a power window built without one (the
fractional kinds, the kernel of ``gagliardo``) cannot be sampled.
Kernels are immutable; samplers take a caller-owned generator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import sphere_area
from .geometry import _ROW_BLOCK, _row_sq_norms
from .quadrature import QuadratureError, integrate

NORMALIZATION_ACCEPT_TOL = 1e-6   # accepted deviation from unit mass
NORMALIZATION_REQUEST_TOL = 1e-10  # accuracy requested from quadrature
DEFAULT_EPS_GRID = (0.4, 0.2, 0.1, 0.05, 0.02)


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

    ``radial_sampler(rng, size)`` returns ``size`` radii drawn exactly from
    the weighted radial law ``S (1 ^ r^p) nu(r) r^(d-1) dr``, using ``rng``
    alone.  Every unit-mass family supplies one; a kernel without one (a
    fractional or custom kernel) cannot be sampled.
    """

    dim: int
    p_exp: float
    profile: object = None
    support_radius: float = math.inf
    inner_radius: float = 0.0
    origin_exponent: float = None
    tail_exponent: float = None
    breakpoints: tuple = ()
    radial_sampler: object = None
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
        # NaN or +inf at r = 0 or inf is an artifact of the quadrature maps,
        # which drop those endpoints; anywhere else it would be read as
        # nu = 0.  An exponent that is finite but overflows still reads 0
        # (the maximum is NaN when any entry is)
        if not np.max(expo, initial=-math.inf) < math.inf and np.any(
                ~(expo < math.inf) & (r > 0.0) & (r < math.inf)):
            raise KernelError("kernel log density is NaN or +inf at a radius "
                              "in (0, inf)")
        return np.where(np.isfinite(out), out, 0.0)

    def spec(self):
        out = {"family": self.family_tag, "d": str(self.dim),
               "p": repr(self.p_exp)}
        if self.eps is not None:
            out["eps"] = repr(self.eps)
        out.update({k: repr(v) for k, v in self.params.items()})
        return out


def radial_integral(kernel, lo, hi, *, weight_beta=None, factor=None,
                    points=(), abs_tol):
    """Integral of S (1 ^ r^beta) nu(r) r^(d-1) over (lo, hi].

    ``hi = math.inf`` integrates to infinity (full-support kernels), using
    the tail-decay hint when present; a finite ``hi`` more than a decade
    above ``lo``, 1 and the breakpoints below it gets a split point per
    decade.  ``points`` are the caller's split points, added to the
    kernel's.  The range is clipped to the kernel's annulus
    ``(inner_radius, support_radius)``.  ``factor``, when given, is a
    radial function multiplying the weighted density; the density is read
    only where the factor is not 0, so a zero factor scores 0 whatever the
    density is there.
    """
    d = kernel.dim
    beta = kernel.p_exp if weight_beta is None else weight_beta

    def f(r):
        if factor is None:
            return kernel.weighted_radial_density(r, weight_beta=beta)
        out = np.array(factor(r), dtype=float)
        live = out != 0.0
        out[live] *= kernel.weighted_radial_density(r[live],
                                                    weight_beta=beta)
        return out

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
    points = (1.0, *kernel.breakpoints, *points)
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


def _inverse_cdf_sampler(cdf_inv):
    """The radial sampler of a closed-form inverse CDF: ``size`` uniforms
    from one ``rng.random`` call, inverted in place a block of
    ``_ROW_BLOCK`` at a time, so that the inverse's temporaries stay in a
    core's cache."""

    def sample(rng, size):
        radii = rng.random(size)
        for lo in range(0, radii.size, _ROW_BLOCK):
            block = radii[lo:lo + _ROW_BLOCK]
            block[...] = cdf_inv(block)
        return radii

    return sample


def _smoothed_power_sampler(dim, beta, eps, eps0):
    """Exact draws from the weighted radial law of ``make_smoothed_power``
    by rejection (Devroye 1986, Non-Uniform Random Variate Generation,
    ch. II.3).

    The law, proportional to (r+eps)^beta r^(d-1) on (0, eps0), is
    dominated by (r+eps)^(a-1), a = beta + d, whose inverse CDF is
    ``eps expm1(log1p(v expm1(a L)) / a)`` with ``L = log1p(eps0/eps)``
    (``eps expm1(v L)`` at a = 0; ``expm1(a L)`` is finite for every kernel
    that builds: :func:`smoothing_constant` refuses ``e^((a+1) L) = inf``).
    A proposal is kept with probability ``(r/(r+eps))^(d-1)``: always in
    d = 1, at least 0.1 in d = 2, 3 for any beta.  Each round proposes as
    many radii as are missing, drawn with their accept uniforms as 2-column
    blocks of ``_ROW_BLOCK`` rows in one reused buffer, and keeps the
    accepted ones in order.
    """
    a = beta + dim
    span = math.log1p(eps0 / eps)
    top = math.expm1(a * span)

    def sample(rng, size):
        out = np.empty(size)
        buf = np.empty((min(size, _ROW_BLOCK), 2))
        got = 0
        while got < size:
            todo = size - got
            for start in range(0, todo, _ROW_BLOCK):
                v, u = rng.random(out=buf[:min(_ROW_BLOCK, todo - start)]).T
                if a == 0.0:
                    r = v * span
                else:
                    r = np.log1p(v * top)
                    r /= a
                np.expm1(r, out=r)
                r *= eps
                # rounding may carry v near 1 an ulp past the support edge
                np.minimum(r, eps0, out=r)
                q = r / (r + eps)
                q **= dim - 1
                idx = np.flatnonzero(u < q)
                k = idx.size
                np.take(r, idx, out=out[got:got + k], mode="clip")
                got += k
        return out

    return sample


def _draw_radii(kernel, rng, size):
    """``size`` radii from the kernel's own sampler, checked finite."""
    if kernel.radial_sampler is None:
        raise KernelError("the %s kernel carries no radial_sampler(rng, "
                          "size) and cannot be sampled" % kernel.family_tag)
    radii = np.asarray(kernel.radial_sampler(rng, size), dtype=float)
    if not np.all(np.isfinite(radii)):
        raise KernelError("sampler produced non-finite radii")
    return radii


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


def _offsets(kernel, radii, rng):
    """The offsets of the drawn ``radii``: one direction per radius drawn
    from ``rng``, scaled by it.

    The Monte Carlo estimators call this once per block of their radii;
    consecutive blocks draw the directions one whole draw would (for
    d = 1, blocks of even length keep ``integers``' 32-bit halves aligned).
    """
    h = sample_directions(rng, radii.size, kernel.dim)
    for j in range(kernel.dim):
        h[:, j] *= radii
    return h


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
    gamma = dim + p_exp - eps
    if gamma == dim + p_exp:
        raise KernelError("stable family needs d + p - eps < d + p in "
                          "floating point (got eps=%r, d + p = %r)"
                          % (eps, dim + p_exp))
    a = eps * (p_exp - eps) / (p_exp * sphere_area(dim))
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

    return _power_window(dim, p_exp, gamma, scale=a,
                         radial_sampler=_inverse_cdf_sampler(cdf_inv),
                         family_tag="stable", eps=eps, params={})


def make_rescaled(base, eps):
    """Three-piece rescaling of a normalized base kernel.

    nu_eps(h) = eps^(-d-p) nu(h/eps)          on |h| <= eps
              = eps^(-d) |h|^(-p) nu(h/eps)   on eps < |h| <= 1
              = eps^(-d) nu(h/eps)            on |h| > 1

    preserving the unit mass exactly.  The weighted radial law of the
    rescaled kernel is the base law contracted by eps, so the base's radii
    are drawn and scaled by eps in place.
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

    def radial_sampler(rng, size):
        radii = _draw_radii(base, rng, size)
        radii *= eps
        return radii

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
        breakpoints=tuple(sorted(breaks)), radial_sampler=radial_sampler,
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
    expo = dim + beta
    # an underflowing eps^(d+beta) leaves c = inf, which _power_window refuses
    denom = sphere_area(dim) * eps ** expo
    c = expo / denom if denom > 0.0 else math.inf

    def cdf_inv(v):
        v = np.asarray(v, dtype=float)
        return eps * np.power(np.clip(v, 0.0, 1.0), 1.0 / expo)

    return _power_window(dim, p_exp, p_exp - beta, scale=c, top=eps,
                         radial_sampler=_inverse_cdf_sampler(cdf_inv),
                         family_tag="truncated_power", eps=eps,
                         params={"beta": beta})


def make_log_limit(dim, p_exp, eps, eps0):
    """Annulus kernel |h|^(-d-p) / (S log(eps0/eps)) on eps < |h| < eps0."""
    _check_dim_p(dim, p_exp)
    if not 0.0 < eps < eps0 < 1.0:
        raise KernelError("log limit needs 0 < eps < eps0 < 1 (got eps=%g, "
                          "eps0=%g)" % (eps, eps0))

    def cdf_inv(v):
        v = np.asarray(v, dtype=float)
        return eps * np.power(eps0 / eps, np.clip(v, 0.0, 1.0))

    return _power_window(dim, p_exp, dim + p_exp,
                         scale=1.0 / (sphere_area(dim) * math.log(eps0 / eps)),
                         cutoff=eps, top=eps0,
                         radial_sampler=_inverse_cdf_sampler(cdf_inv),
                         family_tag="log_limit", eps=eps,
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
    too_large = KernelError("beta=%r is too large for eps=%g, d=%d: b_eps "
                            "leaves the normal float range" % (beta, eps, dim))
    with np.errstate(over="ignore"):
        peak = np.power(t0, -dim - beta - 1.0)    # tf is largest at t0
    if not (eps ** (dim + beta) >= sys.float_info.min and peak < math.inf):
        raise too_large

    def tf(t):
        return np.power(t, -dim - beta - 1.0) * np.power(1.0 - t, dim - 1)
    tval, _ = integrate(tf, t0, 1.0, abs_tol=abs_tol)
    # b_eps, or b_eps |log eps| for beta = -d (where eps^(d+beta) = 1)
    scaled = eps ** (dim + beta) * tval
    if not sys.float_info.min <= scaled < math.inf:
        raise too_large

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
    radii are drawn exactly by rejection (:func:`_smoothed_power_sampler`).
    """
    _check_dim_p(dim, p_exp)
    if not -dim <= beta < math.inf:
        raise KernelError("smoothed power needs finite beta >= -d (got %r)"
                          % (beta,))
    b = smoothing_constant(dim, beta, eps, eps0)
    area = sphere_area(dim)
    denom = area * b * (abs(math.log(eps)) if beta == -dim else 1.0)
    log_denom = math.log(denom)

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= eps0,
                        beta * np.log(r + eps) - p_exp * np.log(r)
                        - log_denom, -np.inf)

    return RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        support_radius=eps0, origin_exponent=float(p_exp),
        origin_coefficient=eps ** beta / denom,
        origin_pure_radius=1e-7 * eps, breakpoints=(eps0,),
        radial_sampler=_smoothed_power_sampler(dim, beta, eps, eps0),
        family_tag="smoothed_power", eps=eps,
        params={"beta": beta, "eps0": eps0})


def _power_window(dim, p_exp, gamma, *, scale=1.0, cutoff=0.0, top=math.inf,
                  family_tag="power_window", eps=None, radial_sampler=None,
                  params=None):
    """The kernel ``scale |h|^(-gamma)`` on ``cutoff < |h| <= top``: the
    ``stable``, ``truncated_power`` and ``log_limit`` families, the
    fractional ones and the kernel of
    :func:`~plevylab.functionals.gagliardo`.

    A window with ``cutoff = 0`` has a closed-form core up to ``top`` and
    one with ``top = inf`` a tail exponent gamma.  ``params`` (default:
    gamma and the cutoff) go into :meth:`RadialKernel.spec`.  A ``scale``
    that is not a positive normal float is refused: its log would be
    -inf, +inf or NaN.
    """
    params = {"gamma": gamma, "cutoff": cutoff} if params is None else params
    if not sys.float_info.min <= scale < math.inf:
        named = ", ".join("%s=%r" % kv
                          for kv in {"eps": eps, **params}.items())
        raise KernelError("the %s kernel at %s has scale %r, not a positive "
                          "normal float" % (family_tag, named, scale))
    log_scale = math.log(scale)

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        out = log_scale - gamma * np.log(r)
        if top < math.inf:
            out = np.where(r <= top, out, -np.inf)
        if cutoff > 0.0:
            out = np.where(r > cutoff, out, -np.inf)
        return out

    core = cutoff == 0.0
    breaks = tuple(b for b in (cutoff, top) if 0.0 < b < math.inf)
    return RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        support_radius=top, inner_radius=cutoff,
        origin_exponent=gamma if core else None,
        origin_coefficient=scale if core else None,
        origin_pure_radius=top if core else 0.0,
        tail_exponent=gamma if top == math.inf else None,
        breakpoints=breaks, radial_sampler=radial_sampler,
        family_tag=family_tag, eps=eps, params=params)


def _fractional_kernel(kind, dim, p_exp, x):
    """The kernel of a fractional family at its index x (s for
    ``frac_order``, eps for the others), a scaled power window of mass

    ``frac_order``  (1-s) |h|^(-d-sp)               S/p + S (1-s) / (s p)
    ``frac_ball``   eps^(-d) |h|^(-p) on B_eps      S/d
    ``frac_log``    |h|^(-d-p) / |log eps| off B_eps  S + S / (p |log eps|)
    """
    _check_dim_p(dim, p_exp)
    if not 0.0 < x < 1.0:
        raise KernelError("the %s family needs 0 < %s < 1 (got %r)" % (
            kind, "s" if kind == "frac_order" else "eps", x))
    if kind == "frac_order":
        window = dict(gamma=dim + x * p_exp, scale=1.0 - x)
    elif kind == "frac_ball":
        if not x ** dim * sys.float_info.max > 1.0:
            raise KernelError("frac_ball needs eps^-d inside the float range "
                              "(got eps=%r, d=%d)" % (x, dim))
        window = dict(gamma=float(p_exp), scale=1.0 / x ** dim, top=x)
    else:
        window = dict(gamma=dim + float(p_exp), scale=1.0 / abs(math.log(x)),
                      cutoff=x)
    return _power_window(dim, p_exp, family_tag=kind, eps=x, **window)


# ---------------------------------------------------------------------------
# eps -> kernel families

FRACTIONAL_KINDS = ("frac_order", "frac_ball", "frac_log")
# every family's parameters and their defaults, stated once
FAMILY_PARAMS = {
    "stable": {},
    "rescaled": {"base_eps": 0.5},
    "truncated_power": {"beta": 0.0},
    "smoothed_power": {"beta": -0.5, "eps0": 0.5},
    "log_limit": {"eps0": 0.5},
    **dict.fromkeys(FRACTIONAL_KINDS, {}),
}
# the unit-mass kinds: default_families() and the CLI's --family choices
FAMILY_KINDS = tuple(k for k in FAMILY_PARAMS if k not in FRACTIONAL_KINDS)
FAMILY_PARAM_NAMES = tuple(dict.fromkeys(
    name for params in FAMILY_PARAMS.values() for name in params))


@dataclass(frozen=True)
class KernelFamily:
    """Generator of kernels along a concentration grid.

    ``kind`` is a key of :data:`FAMILY_PARAMS`; it takes the parameters
    listed there, unset ones at their defaults, and no others.
    ``rescaled`` rescales the stable kernel of order ``base_eps``.  The
    kernels' mass is one, or tends to :meth:`mass_limit` for the fractional
    kinds, and each constructor rejects an index outside its window.  The
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
        if self.kind == "log_limit":
            return make_log_limit(d, p, eps, self.eps0)
        # __post_init__ admits no other kind
        return _fractional_kernel(self.kind, d, p, eps)

    def mass_limit(self):
        """The limit of the kernels' (1 ^ |h|^p)-mass as the index
        concentrates: 1 for the unit-mass kinds, S/p, S/d and S for
        ``frac_order``, ``frac_ball`` and ``frac_log``."""
        area = sphere_area(self.dim)
        return {"frac_order": area / self.p_exp, "frac_ball": area / self.dim,
                "frac_log": area}.get(self.kind, 1.0)

    def default_grid(self):
        # annulus kernels only concentrate once eps drops below the probe
        # radii, hence the lower grids; frac_order's s rises to 1; the others
        # stop below their window's top (stable's (0, p) contains (0, 1))
        if self.kind in ("log_limit", "frac_order", "frac_log"):
            return {"log_limit": (0.08, 0.04, 0.02, 0.01, 0.005),
                    "frac_order": (0.8, 0.9, 0.95, 0.99),
                    "frac_log": (1e-3, 1e-5, 1e-7, 1e-9)}[self.kind]
        top = self.eps0 if self.kind == "smoothed_power" else 1.0
        return tuple(e for e in DEFAULT_EPS_GRID if e < top)

    def spec(self):
        out = {"family": self.kind, "d": str(self.dim), "p": repr(self.p_exp)}
        out.update((name, repr(getattr(self, name)))
                   for name in FAMILY_PARAMS[self.kind])
        return out


def family_from_spec(spec):
    """The family a spec names; KernelFamily refuses an unknown kind and a
    parameter the kind does not take."""
    params = {name: float(spec[name])
              for name in FAMILY_PARAM_NAMES if name in spec}
    return KernelFamily(spec["family"], int(spec.get("d", 1)),
                        float(spec.get("p", 2.0)), **params)


def kernel_from_spec(spec):
    fam = family_from_spec(spec)
    return fam.kernel(float(spec["eps"]))


def default_families(dim=1, p_exp=2.0):
    """The five unit-mass family kinds with their default parameters."""
    return tuple(KernelFamily(kind, dim, p_exp) for kind in FAMILY_KINDS)
