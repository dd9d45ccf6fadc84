"""Deterministic one-dimensional quadrature for piecewise-smooth radial integrands.

All profiles handled by this package are piecewise power laws (possibly
multiplied by smooth factors), so the strategy is:

* globally adaptive bisection with a nested Gauss-Legendre pair per panel
  (the 10/20-point difference serves as the error estimate),
* explicit split points at known kinks, so every panel sees a smooth
  integrand,
* a power substitution ``x = a + u**(1/alpha)`` on the panel touching an
  integrable endpoint singularity ``f ~ C*(x-a)**(alpha-1)``,
* the map ``r = 1/t`` for tails on ``(a, inf)``: :func:`integrate` with
  ``b = inf`` integrates up to ``max(a, points, 1)`` as above and hands the
  rest to :func:`integrate_tail`.

Integrands must be vectorized (``f(ndarray) -> ndarray``).  Failure to reach
the requested tolerance raises :class:`QuadratureError` carrying the achieved
error estimate; divergent integrals are reported this way rather than as a
number.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

_LO_N = 10
_HI_N = 20

_lo_nodes, _lo_weights = np.polynomial.legendre.leggauss(_LO_N)
_hi_nodes, _hi_weights = np.polynomial.legendre.leggauss(_HI_N)
_all_nodes = np.concatenate([_lo_nodes, _hi_nodes])

DEFAULT_ABS_TOL = 1e-12
DEFAULT_MAX_PANELS = 4096


class QuadratureError(ArithmeticError):
    """Quadrature did not converge (includes divergent integrals).

    Attributes
    ----------
    achieved : float
        The error estimate at the point of failure (``inf`` when the
        integrand was non-finite).
    """

    def __init__(self, message, achieved=float("inf")):
        super().__init__(message)
        self.achieved = achieved


def _panel_estimates(f, a, b):
    """Return (high-order estimate, error estimate) for one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore",
                     under="ignore"):
        vals = f(mid + half * _all_nodes)
        lo = half * float(np.dot(_lo_weights, vals[:_LO_N]))
        hi = half * float(np.dot(_hi_weights, vals[_LO_N:]))
    return hi, abs(hi - lo)


def adaptive_regions(regions, *, abs_tol=DEFAULT_ABS_TOL, rel_tol=1e-12,
                     max_panels=DEFAULT_MAX_PANELS):
    """Globally adaptive integral over a pool of ``(f, a, b)`` regions.

    All regions share one error budget: the panel with the worst error
    estimate anywhere in the pool is bisected until the summed estimate
    drops below ``max(abs_tol, rel_tol*|I|)``.  Returns
    ``(value, error_estimate)``.
    """
    heap = []
    counter = 0
    total = total_err = 0.0
    n_panels = 0
    for f, a, b in regions:
        if b <= a:
            continue
        est, err = _panel_estimates(f, a, b)
        if not math.isfinite(est):
            raise QuadratureError(
                "non-finite integrand on (%g, %g)" % (a, b))
        counter += 1
        heapq.heappush(heap, (-err, counter, a, b, est, err, f))
        total += est
        total_err += err
        n_panels += 1
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if n_panels >= max_panels:
            raise QuadratureError(
                "adaptive quadrature stalled: error estimate %.3e after %d "
                "panels (likely divergent or insufficiently resolved)"
                % (total_err, n_panels), achieved=total_err)
        if not heap:
            break
        neg_err, _, pa, pb, pest, perr, f = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # panel at floating point resolution; accept its estimate
            total_err -= perr
            continue
        e1, r1 = _panel_estimates(f, pa, mid)
        e2, r2 = _panel_estimates(f, mid, pb)
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise QuadratureError(
                "non-finite integrand near (%g, %g)" % (pa, pb))
        total += (e1 + e2) - pest
        total_err += (r1 + r2) - perr
        for bounds, est_i, err_i in (((pa, mid), e1, r1), ((mid, pb), e2, r2)):
            counter += 1
            heapq.heappush(heap, (-err_i, counter, bounds[0], bounds[1],
                                  est_i, err_i, f))
        n_panels += 1
    return total, total_err


def adaptive(f, a, b, *, abs_tol=DEFAULT_ABS_TOL, rel_tol=1e-12,
             max_panels=DEFAULT_MAX_PANELS):
    """Globally adaptive integral of ``f`` on ``[a, b]``."""
    if b <= a:
        return 0.0, 0.0
    return adaptive_regions([(f, a, b)], abs_tol=abs_tol, rel_tol=rel_tol,
                            max_panels=max_panels)


def _power_mapped(f, a, alpha):
    """Wrap ``f`` for the substitution ``x = a + u**(1/alpha)``.

    Valid for an integrable singularity ``f ~ C*(x-a)**(alpha-1)`` with
    ``0 < alpha <= 1``; the transformed integrand is bounded near ``u = 0``.
    """
    inv = 1.0 / alpha

    def g(u):
        jac = inv * np.power(u, inv - 1.0)
        out = np.zeros_like(u)
        ok = (jac > 0) & np.isfinite(jac)
        if np.any(ok):
            x = a + np.power(u[ok], inv)
            vals = np.asarray(f(x), dtype=float)
            # where x collapsed onto the singular endpoint, the true
            # contribution is jac-suppressed to zero
            vals[~np.isfinite(vals)] = 0.0
            vals[x == a] = 0.0
            out[ok] = vals * jac[ok]
        return out

    return g


def integrate(f, a, b, *, points=(), alpha_left=None, alpha_right=None,
              decay_exponent=None, abs_tol=DEFAULT_ABS_TOL, rel_tol=1e-12,
              max_panels=DEFAULT_MAX_PANELS):
    """Integrate ``f`` over ``(a, b)`` with known kinks and endpoint hints.

    ``b`` may be ``math.inf``: the range ``(a, far)`` with
    ``far = max(a, *points, 1)`` is integrated as a finite one, and
    ``(far, inf)`` by :func:`integrate_tail`.

    Parameters
    ----------
    points : iterable of float
        Interior kink locations; the interval is split there so every
        sub-panel is smooth inside.
    alpha_left, alpha_right : float, optional
        Endpoint singularity exponents: the integrand behaves like
        ``(x-a)**(alpha_left-1)`` near ``a`` (resp. ``(b-x)**(alpha_right-1)``
        near a finite ``b``).  ``alpha <= 0`` means the integral diverges and
        raises.  Hints with ``alpha >= 1`` are ignored (no true singularity).
    decay_exponent : float, optional
        For ``b = inf``: ``q`` with ``f(x) ~ C*x**(-q)`` at infinity, passed
        to :func:`integrate_tail`; ignored for finite ``b``.

    Returns ``(value, error_estimate)``; on an infinite range both are the
    sums over the finite part and the tail.
    """
    if b == math.inf:
        points = tuple(points)
        far = max(a, *points, 1.0)
        tol = dict(abs_tol=abs_tol, rel_tol=rel_tol, max_panels=max_panels)
        near, near_err = integrate(f, a, far, points=points,
                                   alpha_left=alpha_left, **tol)
        tail, tail_err = integrate_tail(f, far, decay_exponent=decay_exponent,
                                        **tol)
        return near + tail, near_err + tail_err
    if b <= a:
        return 0.0, 0.0
    for name, alpha in (("left", alpha_left), ("right", alpha_right)):
        if alpha is not None and alpha <= 0.0:
            raise QuadratureError(
                "divergent endpoint singularity (%s alpha=%g <= 0)"
                % (name, alpha))
    cuts = sorted({float(p) for p in points if a < p < b})
    if not cuts and alpha_left is not None and alpha_right is not None \
            and alpha_left < 1.0 and alpha_right < 1.0:
        cuts = [0.5 * (a + b)]
    edges = [a, *cuts, b]
    pieces = list(zip(edges[:-1], edges[1:]))
    regions = []
    for i, (lo, hi) in enumerate(pieces):
        if i == 0 and alpha_left is not None and alpha_left < 1.0:
            regions.append((_power_mapped(f, lo, alpha_left),
                            0.0, (hi - lo) ** alpha_left))
        elif i == len(pieces) - 1 and alpha_right is not None \
                and alpha_right < 1.0:
            regions.append((_power_mapped(lambda x, _h=hi: f(2.0 * _h - x),
                                          hi, alpha_right),
                            0.0, (hi - lo) ** alpha_right))
        else:
            regions.append((f, lo, hi))
    return adaptive_regions(regions, abs_tol=abs_tol, rel_tol=rel_tol,
                            max_panels=max_panels)


def integrate_tail(f, a, *, decay_exponent=None, abs_tol=DEFAULT_ABS_TOL,
                   rel_tol=1e-12, max_panels=DEFAULT_MAX_PANELS):
    """Integrate ``f`` over ``(a, inf)`` for ``a > 0`` via ``r = 1/t``.

    ``decay_exponent`` is ``q`` such that ``f(r) ~ C*r**(-q)`` at infinity;
    it supplies the endpoint hint ``alpha = q - 1`` for the transformed
    integrand.  ``q <= 1`` diverges.
    """
    if a <= 0.0:
        raise ValueError("tail transform needs a > 0")

    def g(t):
        r = 1.0 / t
        return np.asarray(f(r), dtype=float) * r * r

    alpha = None if decay_exponent is None else decay_exponent - 1.0
    return integrate(g, 0.0, 1.0 / a, alpha_left=alpha, abs_tol=abs_tol,
                     rel_tol=rel_tol, max_panels=max_panels)


def fixed_gauss(f, a, b, n=_HI_N):
    """Non-adaptive Gauss-Legendre panel on (a, b); arrays of panel ends
    give an array of panel integrals from one call of ``f``."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * nodes
    vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    out = half * (vals @ weights)
    return float(out) if out.ndim == 0 else out
