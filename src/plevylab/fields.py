"""Test functions: evaluation, analytic gradients, L^p gradient norms, and
total-variation seminorms for the piecewise-constant ones.

Every field evaluates vectorized on ``(n, dim)`` arrays.  Gradients are
analytic; piecewise-constant fields have zero gradient away from their
interfaces and refuse pointwise gradients on them.  The total-variation
seminorm is computed in closed form as (jump magnitude) x (interface measure
strictly inside the domain), which is exact for the hyperplane and sphere
interfaces supported here; nothing is discretized.

Every optional field fact has its default on :class:`Field`, ``laplacian``
one that raises.  ``u.scaled(c)`` and ``u.shifted(c)`` return one
:class:`Affine` ``scale * u + shift`` that states every fact of ``u``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import sphere_area, unit_ball_volume
from .geometry import (Ball, Box, IntervalUnion, SlitBall, _row_sums,
                       _squared_radius)
from .quadrature import integrate

SMOOTH = "smooth"
LIPSCHITZ = "lipschitz"
PIECEWISE_CONSTANT = "piecewise_constant"


class FieldError(ValueError):
    pass


class InterfaceGradientError(FieldError):
    """Gradient requested on a jump interface."""


@functools.lru_cache(maxsize=None)
def _einsum_lanes(d):
    """Columns of a d-column row in the order ``np.einsum`` adds them.

    einsum's kernel for unit-stride rows keeps two SIMD lanes: even-index
    columns go into one sum and odd-index columns into the other.  Its
    unrolled loop takes eight columns at a time and adds them from the
    last pair back; the remaining columns follow in order.
    """
    even, odd = [], []
    whole = d - d % 8
    for base in range(0, whole, 8):
        even += range(base + 6, base - 1, -2)
        odd += range(base + 7, base, -2)
    even += range(whole, d, 2)
    odd += range(whole + 1, d, 2)
    return tuple(tuple(lane) for lane in (even, odd) if lane)


def _dot(a, b):
    """Row-wise dot products of two (n, d) arrays.

    The products are formed one column and one block of rows at a time
    and added in the order of ``np.einsum("ij,ij->i")`` on C-ordered rows
    (:func:`_einsum_lanes`): even-index columns into one sum, odd-index
    into another, then even + odd (in d = 3, ``(x0 y0 + x2 y2) + x1 y1``;
    d = 1 is the single product).  The order is kept so that every field
    value keeps the bits it had when the dot was that einsum, whose inner
    loop ran once per row.  Being fixed, it no longer depends on the
    layout: einsum adds sequentially when the columns are not unit-stride
    (Fortran-ordered or transposed arrays).  A row whose products are all
    -0.0 reads -0.0 where einsum's zero-started sum reads +0.0; every
    caller adds a square norm to a cross dot, which makes it +0.0.
    Floating-point errors are ignored, as einsum ignores them.
    """
    def term(lo, hi, j, out):
        return np.multiply(a[lo:hi, j], b[lo:hi, j], out=out)

    return _row_sums(term, a.shape[0], _einsum_lanes(a.shape[1]))


def _pts(x, dim):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1) if dim > 1 else pts.reshape(-1, 1)
    if pts.shape[1] != dim:
        raise FieldError("expected points of shape (n, %d)" % dim)
    return pts


class Field:
    dim: int
    regularity: str
    # 1-D points where the field is continuous but not differentiable
    kinks: tuple = ()
    # 1-D jump interface locations (piecewise-constant fields)
    jump_points: tuple = ()
    # R such that ``eval`` returns exactly 0.0 beyond it, at every |x| >= R
    # up to the rounding of |x| (None: no such R).  The Gaussian states its
    # underflow radius sqrt(746) ~ 27.31: exp(-s) is 0.0 for s > 745.14
    support_radius = None
    # True when u(x) depends on |x| only (a class fact): the ball routes of
    # grad_lp_norm and sobolev_norm_p integrate such a field along one axis
    radial = False
    # Contract: _offset_diff(x, h) returns u(x+h) - u(x) without
    # cancellation at any |h|.  Concentrated kernels probe offsets far below
    # the resolution of u(x+h) - u(x) formed by subtraction, and both
    # estimators read differences through this hook only.  The base
    # subtraction is exact for piecewise-constant fields and otherwise only
    # the default for custom fields; the other built-in fields override it.

    def eval(self, x):
        return self._eval(_pts(x, self.dim))

    def grad(self, x):
        return self._grad(_pts(x, self.dim))

    def offset_diff(self, x, h):
        """u(x + h) - u(x) for paired point/offset arrays."""
        pts = _pts(x, self.dim)
        off = np.broadcast_to(np.asarray(h, dtype=float), pts.shape)
        return self._offset_diff(pts, off)

    def _offset_diff(self, pts, off):
        return self._eval(pts + off) - self._eval(pts)

    def laplacian(self, x):
        raise FieldError("%s has no analytic laplacian" % type(self).__name__)

    def scaled(self, c):
        return Affine(self, c, 0.0)

    def shifted(self, c):
        return Affine(self, 1.0, c)

    def spec(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(Field):
    """u(x) = a.x + b with constant vector slope a."""

    slope: tuple = (1.0,)
    intercept: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slope",
                           tuple(float(s) for s in np.atleast_1d(self.slope)))

    @property
    def dim(self):
        return len(self.slope)

    regularity = SMOOTH

    def _eval(self, pts):
        return pts @ np.asarray(self.slope) + self.intercept

    def _grad(self, pts):
        return np.broadcast_to(np.asarray(self.slope),
                               pts.shape).copy()

    def _offset_diff(self, pts, off):
        return off @ np.asarray(self.slope)

    def laplacian(self, x):
        pts = _pts(x, self.dim)
        return np.zeros(pts.shape[0])

    def spec(self):
        return {"field": "linear",
                "slope": ",".join(repr(s) for s in self.slope),
                "intercept": repr(self.intercept)}


@dataclass(frozen=True)
class Gaussian(Field):
    """u(x) = exp(-|x|^2)."""

    dim: int = 1
    regularity = SMOOTH
    support_radius = math.sqrt(746.0)
    radial = True

    def _eval(self, pts):
        out = _dot(pts, pts)
        np.negative(out, out=out)
        return np.exp(out, out=out)

    def _grad(self, pts):
        return -2.0 * pts * self._eval(pts)[:, None]

    def _offset_diff(self, pts, off):
        # u(x+h) - u(x) = exp(-|x|^2) expm1(-(2 x.h + |h|^2)); the exponent
        # difference is formed from the offset itself, so no cancellation.
        # Where exp(-|x|^2) is subnormal (|x| > 26.6) a step toward the
        # origin would read 0 * inf or lost bits: there the difference is
        # anchored on the larger value exp(-|x+h|^2), as SmoothBump does
        delta = 2.0 * _dot(pts, off) + _dot(off, off)
        ux = self._eval(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            out = ux * np.expm1(-delta)
        far = (ux < np.finfo(float).tiny) & (delta < 0.0)
        if far.any():
            y = pts[far] + off[far]
            out[far] = -np.exp(-_dot(y, y)) * np.expm1(delta[far])
        return out

    def laplacian(self, x):
        pts = _pts(x, self.dim)
        r2 = _dot(pts, pts)
        e = np.exp(-r2)
        # where exp(-r2) underflows to 0 the factor may overflow (inf * 0)
        live = e != 0.0
        out = np.zeros(pts.shape[0])
        out[live] = (4.0 * r2[live] - 2.0 * self.dim) * e[live]
        return out

    def spec(self):
        return {"field": "gaussian", "d": str(self.dim)}


@dataclass(frozen=True)
class Tent(Field):
    """u(x) = max(0, 1 - |x|); Lipschitz with constant 1, supported in B_1."""

    dim: int = 1
    regularity = LIPSCHITZ
    support_radius = 1.0
    radial = True

    @property
    def kinks(self):
        return (-1.0, 0.0, 1.0) if self.dim == 1 else ()

    def _eval(self, pts):
        r = np.sqrt(_dot(pts, pts))
        return np.maximum(0.0, 1.0 - r)

    def _offset_diff(self, pts, off):
        if self.dim != 1:
            # |x| - |x+h| = -(2 x.h + |h|^2) / (|x| + |x+h|) inside the
            # support; a pair reaching past it compares the clipped radii
            y = pts + off
            rx, ry = np.sqrt(_dot(pts, pts)), np.sqrt(_dot(y, y))
            num = 2.0 * _dot(pts, off) + _dot(off, off)
            inside = -num / np.maximum(rx + ry, np.finfo(float).tiny)
            return np.where((rx < 1.0) & (ry < 1.0), inside,
                            np.minimum(rx, 1.0) - np.minimum(ry, 1.0))
        x = pts[:, 0]
        h = off[:, 0]
        y = x + h
        # on one linear piece the slope acts on the exact offset; across a
        # kink t(y) - t(x) = min(|x|,1) - min(|y|,1) subtracts nearby
        # magnitudes, which is exact (Sterbenz) and only O(eps |x|) off
        # through the rounding of x + h
        same = (np.sign(x) == np.sign(y)) & (np.abs(x) < 1.0) \
            & (np.abs(y) < 1.0) & (x != 0.0)
        across = np.minimum(np.abs(x), 1.0) - np.minimum(np.abs(y), 1.0)
        return np.where(same, -np.sign(x) * h, across)

    def _grad(self, pts):
        # a.e. gradient; arbitrary (zero) on the kink set {0, |x|=1}
        r = np.sqrt(_dot(pts, pts))
        out = np.zeros_like(pts)
        inside = (r > 0) & (r < 1)
        out[inside] = -pts[inside] / r[inside, None]
        return out

    def spec(self):
        return {"field": "tent", "d": str(self.dim)}


@dataclass(frozen=True)
class SmoothBump(Field):
    """C^inf bump exp(1 - 1/(1 - |x/R|^2)) on |x| < R, zero outside."""

    dim: int = 1
    radius: float = 1.0
    regularity = SMOOTH
    radial = True

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise FieldError("bump radius must be positive and finite "
                             "(got %r)" % (self.radius,))
        # every evaluation divides by the square: an underflowing one reads
        # the bump's centre as 0, an overflowing one raises mid-evaluation
        _squared_radius(self, FieldError)

    @property
    def support_radius(self):
        return self.radius

    def _eval(self, pts):
        s = _dot(pts, pts)
        s /= self.radius ** 2
        inside = s < 1.0
        # exp(1 - 1/(1 - s)) in the one gathered buffer
        t = s[inside]
        np.subtract(1.0, t, out=t)
        np.divide(1.0, t, out=t)
        np.subtract(1.0, t, out=t)
        np.exp(t, out=t)
        out = np.zeros(pts.shape[0])
        out[inside] = t
        return out

    def _grad(self, pts):
        s = _dot(pts, pts) / self.radius ** 2
        out = np.zeros_like(pts)
        inside = s < 1.0
        u = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        factor = -2.0 / (self.radius ** 2 * (1.0 - s[inside]) ** 2) * u
        out[inside] = pts[inside] * factor[:, None]
        return out

    def _offset_diff(self, pts, off):
        # u = exp(1 - 1/a) grows with a = 1 - |x|^2/R^2.  The difference is
        # anchored on the larger value, exp(1 - 1/max(a_x, a_y)), times
        # expm1 of minus the exponent gap |a_x - a_y|/(a_x a_y), with
        # a_x - a_y = (2 x.h + |h|^2)/R^2 formed from the offset itself.
        # The product never overflows, and the gap is infinite (expm1 = -1)
        # when only one point lies inside the support
        r2 = self.radius ** 2
        ax = 1.0 - _dot(pts, pts) / r2
        ds = (2.0 * _dot(pts, off) + _dot(off, off)) / r2
        ay = ax - ds
        with np.errstate(divide="ignore", over="ignore"):
            top = np.exp(1.0 - 1.0 / np.maximum(np.maximum(ax, ay), 0.0))
            e = np.expm1(-np.abs(ds)
                         / np.maximum(ax * ay, np.finfo(float).tiny))
        return np.where(ds >= 0.0, e, -e) * top

    def laplacian(self, x):
        # for u = exp(g(s)), s = |x|^2/R^2: Lap u = (2u/R^2)(d g' + 2s(g'^2 + g''))
        pts = _pts(x, self.dim)
        s = _dot(pts, pts) / self.radius ** 2
        out = np.zeros(pts.shape[0])
        inside = s < 1.0
        si = s[inside]
        u = np.exp(1.0 - 1.0 / (1.0 - si))
        g1 = -1.0 / (1.0 - si) ** 2
        g2 = -2.0 / (1.0 - si) ** 3
        out[inside] = (2.0 * u / self.radius ** 2) \
            * (self.dim * g1 + 2.0 * si * (g1 * g1 + g2))
        return out

    def spec(self):
        return {"field": "bump", "d": str(self.dim),
                "radius": repr(self.radius)}


@dataclass(frozen=True)
class SignJump(Field):
    """u = -magnitude on {x_d < 0}, +magnitude on {x_d > 0}, 0 on the plane.

    The jump across the interface has size ``2 * magnitude`` (the default
    levels -1/2 and +1/2 give a unit jump).
    """

    dim: int = 1
    magnitude: float = 0.5
    regularity = PIECEWISE_CONSTANT

    @property
    def jump_points(self):
        return (0.0,) if self.dim == 1 else ()

    @property
    def jump_size(self):
        return 2.0 * abs(self.magnitude)

    def _eval(self, pts):
        return self.magnitude * np.sign(pts[:, -1])

    def _grad(self, pts):
        if np.any(pts[:, -1] == 0.0):
            raise InterfaceGradientError(
                "gradient undefined on the jump interface x_d = 0")
        return np.zeros_like(pts)

    def spec(self):
        return {"field": "sign_jump", "d": str(self.dim),
                "magnitude": repr(self.magnitude)}


@dataclass(frozen=True)
class BallIndicator(Field):
    """Indicator-type field: ``inside`` on |x| < radius, ``outside`` beyond."""

    dim: int = 2
    radius: float = 0.5
    inside: float = 1.0
    outside: float = 0.0
    regularity = PIECEWISE_CONSTANT
    radial = True

    @property
    def jump_points(self):
        return (-self.radius, self.radius) if self.dim == 1 else ()

    @property
    def jump_size(self):
        return abs(self.inside - self.outside)

    def _eval(self, pts):
        r2 = _dot(pts, pts)
        return np.where(r2 < self.radius ** 2, self.inside, self.outside)

    def _grad(self, pts):
        r = np.sqrt(_dot(pts, pts))
        if np.any(r == self.radius):
            raise InterfaceGradientError(
                "gradient undefined on the sphere interface")
        return np.zeros_like(pts)

    def spec(self):
        return {"field": "ball_indicator", "d": str(self.dim),
                "radius": repr(self.radius), "inside": repr(self.inside),
                "outside": repr(self.outside)}


class Affine(Field):
    """scale * u + shift, with every fact of u; the support radius only
    survives a zero shift (u + c is c beyond the support of u).  An
    ``Affine`` base is folded in, so the base is never an ``Affine``."""

    def __init__(self, base, scale=1.0, shift=0.0):
        if isinstance(base, Affine):    # c (a u + b) + s = ca u + (cb + s)
            base, scale, shift = (base.base, scale * base.scale,
                                  scale * base.shift + shift)
        self.base, self.scale, self.shift = base, float(scale), float(shift)

    dim = property(lambda self: self.base.dim)
    regularity = property(lambda self: self.base.regularity)
    kinks = property(lambda self: self.base.kinks)
    jump_points = property(lambda self: self.base.jump_points)
    radial = property(lambda self: self.base.radial)

    @property
    def support_radius(self):
        return self.base.support_radius if self.shift == 0.0 else None

    @property
    def jump_size(self):
        return abs(self.scale) * self.base.jump_size

    def _eval(self, pts):
        return self.scale * self.base._eval(pts) + self.shift

    def _grad(self, pts):
        return self.scale * self.base._grad(pts)

    def _offset_diff(self, pts, off):
        return self.scale * self.base._offset_diff(pts, off)

    def laplacian(self, x):
        return self.scale * self.base.laplacian(x)

    def spec(self):
        out = dict(self.base.spec())
        if self.scale != 1.0:
            out["scale"] = repr(self.scale)
        if self.shift != 0.0:
            out["shift"] = repr(self.shift)
        return out


def grad_lp_norm(field, domain, p_exp, *, abs_tol=1e-11):
    """Integral of |grad u|^p over the domain.

    Closed form for linear fields, 1-D adaptive quadrature on interval
    unions, radial quadrature on centred balls for ``radial`` fields; an
    ``Affine`` field gives its base's value times ``|scale|^p``.  Jump
    fields are rejected: their energy lives on interfaces (bv_seminorm).
    """
    if field.regularity == PIECEWISE_CONSTANT:
        # with every interface outside the open domain the field is locally
        # constant there and its gradient energy vanishes
        if bv_seminorm(field, domain) == 0.0:
            return 0.0
        raise FieldError("field jumps inside the domain: use bv_seminorm")
    if p_exp < 1:
        raise FieldError("p must be >= 1")
    if field.dim != domain.dim:
        raise FieldError("field/domain dimension mismatch")
    if isinstance(field, Affine):
        return abs(field.scale) ** p_exp * grad_lp_norm(field.base, domain,
                                                        p_exp, abs_tol=abs_tol)
    if isinstance(field, Linear):
        slope = math.sqrt(sum(s * s for s in field.slope))
        return slope ** p_exp * domain.volume()
    if isinstance(domain, IntervalUnion):
        total = 0.0
        for a, b in domain.intervals:
            def f(x):
                g = field.grad(x.reshape(-1, 1))
                return np.abs(g[:, 0]) ** p_exp
            val, _ = integrate(f, a, b, points=field.kinks, abs_tol=abs_tol)
            total += val
        return total
    if isinstance(domain, Ball) and field.radial \
            and all(c == 0.0 for c in domain.center):
        def f(r):
            # at (r, 0, ...) a radial field's gradient lies on the first axis
            g = field.grad(np.outer(r, np.eye(domain.dim)[0]))
            return np.abs(g[:, 0]) ** p_exp * r ** (domain.dim - 1)
        # |grad u| may jump at the support edge (the tent's is 1 to 0)
        edge = () if field.support_radius is None else (field.support_radius,)
        val, _ = integrate(f, 0.0, domain.radius, points=edge, abs_tol=abs_tol)
        return sphere_area(domain.dim) * val
    raise FieldError("no quadrature route for %s on %s"
                     % (type(field).__name__, type(domain).__name__))


def _hyperplane_section_measure(domain):
    """(d-1)-measure of {x_d = 0} inside the domain, or None if excluded."""
    if isinstance(domain, IntervalUnion):
        inside = any(a < 0.0 < b for a, b in domain.intervals)
        return 1.0 if inside else 0.0
    if isinstance(domain, SlitBall):
        return 0.0  # the slit is removed from the domain by definition
    if isinstance(domain, Ball):
        if any(c != 0.0 for c in domain.center):
            return None
        d, r = domain.dim, domain.radius
        return unit_ball_volume(d - 1) * r ** (d - 1) if d >= 2 else 1.0
    if isinstance(domain, Box):
        if not (domain.lo[-1] < 0.0 < domain.hi[-1]):
            return 0.0
        return float(np.prod([h - l for l, h
                              in zip(domain.lo[:-1], domain.hi[:-1])]))
    return None


def bv_seminorm(field, domain):
    """Total variation of a piecewise-constant field inside the domain.

    Sum over interfaces of jump size times the interface measure strictly
    inside the open domain.  Interfaces falling on removed slits contribute
    nothing.  Raises for interfaces without a closed-form measure.
    """
    if isinstance(field, Affine):
        return abs(field.scale) * bv_seminorm(field.base, domain)
    if field.regularity != PIECEWISE_CONSTANT:
        raise FieldError("bv_seminorm needs a piecewise-constant field")
    if field.dim != domain.dim:
        raise FieldError("field/domain dimension mismatch")
    if isinstance(field, SignJump):
        measure = _hyperplane_section_measure(domain)
        if measure is None:
            raise FieldError("no closed-form interface measure for %s"
                             % type(domain).__name__)
        return field.jump_size * measure
    if isinstance(field, BallIndicator):
        rho = field.radius
        if isinstance(domain, IntervalUnion):
            count = sum(1 for pt in (-rho, rho)
                        if any(a < pt < b for a, b in domain.intervals))
            return field.jump_size * count
        if isinstance(domain, Ball) and all(c == 0.0 for c in domain.center):
            if rho >= domain.radius:
                return 0.0
            return field.jump_size * sphere_area(domain.dim) \
                * rho ** (domain.dim - 1)
        raise FieldError("no closed-form interface measure for %s"
                         % type(domain).__name__)
    raise FieldError("bv_seminorm unsupported for %s" % type(field).__name__)


def sobolev_norm_p(field, p_exp, *, abs_tol=1e-11):
    """Full-space W^{1,p} norm to the p-th power, ||u||_p^p + ||grad u||_p^p.

    Only for fields that state a ``support_radius`` (the bound tests use
    it with the tent field), integrating over the support interval, or
    along one axis of the support ball for a radial field in d >= 2.
    """
    r = field.support_radius
    if r is None or (field.dim > 1 and not field.radial):
        raise FieldError("needs a compactly supported field, radial in d >= 2")
    if field.dim == 1:
        dom = IntervalUnion(((-r, r),))

        def fval(x):
            return np.abs(field.eval(x.reshape(-1, 1))) ** p_exp
        val, _ = integrate(fval, -r, r, points=field.kinks, abs_tol=abs_tol)
        return val + grad_lp_norm(field, dom, p_exp, abs_tol=abs_tol)
    dom = Ball(r, field.dim)

    def fval(rr):
        pts = np.outer(rr, np.eye(field.dim)[0])
        return np.abs(field.eval(pts)) ** p_exp * rr ** (field.dim - 1)
    val, _ = integrate(fval, 0.0, r, abs_tol=abs_tol)
    return sphere_area(field.dim) * val + grad_lp_norm(field, dom, p_exp,
                                                       abs_tol=abs_tol)


def from_spec(spec):
    kind = spec.get("field")
    if kind == "linear":
        slope = tuple(float(v) for v in spec.get("slope", "1").split(","))
        field = Linear(slope, float(spec.get("intercept", 0.0)))
    elif kind == "gaussian":
        field = Gaussian(int(spec.get("d", 1)))
    elif kind == "tent":
        field = Tent(int(spec.get("d", 1)))
    elif kind == "bump":
        field = SmoothBump(int(spec.get("d", 1)),
                           float(spec.get("radius", 1.0)))
    elif kind == "sign_jump":
        field = SignJump(int(spec.get("d", 1)),
                         float(spec.get("magnitude", 0.5)))
    elif kind == "ball_indicator":
        field = BallIndicator(int(spec.get("d", 2)),
                              float(spec.get("radius", 0.5)),
                              float(spec.get("inside", 1.0)),
                              float(spec.get("outside", 0.0)))
    else:
        raise FieldError("unknown field kind %r" % kind)
    scale, shift = float(spec.get("scale", 1)), float(spec.get("shift", 0))
    return Affine(field, scale, shift) if (scale, shift) != (1, 0) else field
