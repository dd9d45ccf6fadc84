"""The directional moment constant of the sphere, computed three ways.

``kdp(d, p)`` is the mean of ``|w.e|**p`` over the unit sphere ``S^{d-1}``
for any unit vector ``e``.  It equals 1 in dimension one and ``1/d`` at
``p = 2``.  Three independent routes are provided:

* ``kdp_mean``   -- 1-D latitude quadrature (ground truth),
* ``kdp_closed`` -- Gamma-function ratio consistent with the Beta-integral
  derivation, ``G(d/2) G((p+1)/2) / (G((d+p)/2) G(1/2))``,
* ``kdp_mc``     -- Monte Carlo sphere average with a standard error.

A second Gamma ratio with ``G((d-1)/2)`` in the numerator circulates for the
same constant; it disagrees with the other routes (e.g. 0.886 vs 0.5 at
``d = p = 2``), so it is exposed only as ``value_variant`` metadata and the
derivation-consistent form is the one used everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate

__all__ = [
    "sphere_area", "unit_ball_volume", "kdp_mean", "kdp_closed",
    "kdp_variant_ratio", "kdp_mc", "Kdp", "compute_kdp",
]


def _gamma(x, dim):
    """``math.gamma(x)`` for a formula in dimension ``dim``; an overflow
    (x above about 171.6, so d above about 343) names that dimension."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError("Gamma(%g) is beyond the float range at d=%d"
                            % (x, dim)) from None


def sphere_area(dim):
    """Surface measure of the unit sphere S^{dim-1} in R^dim (|S^0| = 2)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 2.0 * math.pi ** (dim / 2.0) / _gamma(dim / 2.0, dim)


def unit_ball_volume(dim):
    """Lebesgue volume of the unit ball in R^dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return math.pi ** (dim / 2.0) / _gamma(dim / 2.0 + 1.0, dim)


def kdp_mean(dim, p_exp, *, abs_tol=1e-13):
    """Sphere mean of |w.e|^p via the 1-D latitude integral.

    For d >= 2 the latitude coordinate t = w.e reduces the mean to
    ``(w_{d-2}/w_{d-1}) * 2 * int_0^1 (1-t^2)^((d-3)/2) t^p dt``; the
    substitution ``t = sin(theta)`` removes the d = 2 endpoint singularity,
    leaving a smooth integrand for every dimension.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if p_exp < 1:
        raise ValueError("p must be >= 1")
    if dim == 1:
        return 1.0
    d = dim
    # |S^{d-1}| first: its Gamma(d/2) is the one that overflows first
    area = sphere_area(d)
    ratio = sphere_area(d - 1) / area

    def integrand(theta):
        return np.cos(theta) ** (d - 2) * np.sin(theta) ** p_exp

    val, _ = integrate(integrand, 0.0, 0.5 * math.pi, abs_tol=abs_tol)
    return ratio * 2.0 * val


def kdp_closed(dim, p_exp):
    """Gamma-ratio closed form, G(d/2)G((p+1)/2)/(G((d+p)/2)G(1/2))."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return (_gamma(dim / 2.0, dim) * _gamma((p_exp + 1.0) / 2.0, dim)
            / (_gamma((dim + p_exp) / 2.0, dim) * math.gamma(0.5)))


def kdp_variant_ratio(dim, p_exp):
    """The circulating G((d-1)/2) variant of the closed form (d >= 2 only).

    Kept for diagnostics; it does not match the sphere mean.
    """
    if dim < 2:
        return float("nan")
    return (_gamma((dim - 1) / 2.0, dim) * _gamma((p_exp + 1.0) / 2.0, dim)
            / (_gamma((dim + p_exp) / 2.0, dim) * math.gamma(0.5)))


def kdp_mc(dim, p_exp, n=1_000_000, seed=0, direction=None):
    """Monte Carlo sphere average of |w.e|^p.

    Draws ``n`` points uniformly on S^{dim-1} as normalized Gaussian vectors
    and averages ``|w.e|**p`` against the unit vector ``direction`` (first
    axis by default).  Returns ``(value, stderr)``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xC0]))
    if direction is None:
        e = np.zeros(dim)
        e[0] = 1.0
    else:
        e = np.asarray(direction, dtype=float)
        e = e / np.linalg.norm(e)
    total = 0.0
    total2 = 0.0
    remaining = n
    chunk = 1 << 19
    while remaining > 0:
        m = min(chunk, remaining)
        w = rng.normal(size=(m, dim))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        vals = np.abs(w @ e) ** p_exp
        total += float(vals.sum())
        total2 += float((vals * vals).sum())
        remaining -= m
    mean = total / n
    var = max(total2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class Kdp:
    """All routes to the constant for one (d, p), plus their discrepancy."""

    dim: int
    p_exp: float
    value_mean: float
    value_closed: float
    value_variant: float
    discrepancy: float  # |value_mean - value_closed|


def compute_kdp(dim, p_exp):
    mean = kdp_mean(dim, p_exp)
    closed = kdp_closed(dim, p_exp)
    return Kdp(dim=dim, p_exp=p_exp, value_mean=mean, value_closed=closed,
               value_variant=kdp_variant_ratio(dim, p_exp),
               discrepancy=abs(mean - closed))
