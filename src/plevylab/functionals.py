"""Nonlocal energy functionals and their estimators.

The central object is the double integral of ``|u(x) - u(y)|^p`` against a
radial kernel over pairs drawn from one or two domains.  Two evaluation modes:

Monte Carlo
    Importance sampling in the substitution ``h = y - x``: x uniform on the
    domain, ``|h|`` from the kernel's unit-mass weighted radial law, direction
    uniform.  A proposed pair is accepted when ``x + h`` lands in the target
    set, and contributes ``vol * (|u(x+h) - u(x)| / (1 ^ |h|))^p``, which is
    unbiased for the double integral because the offset density is
    ``(1 ^ |h|^p) nu(h)``.  The weight is bounded for Lipschitz fields.
    Differences come from the fields' offset evaluation, which is exact at
    any radius: concentrated kernels put substantial mass at radii where
    ``u(x+h) - u(x)`` formed by subtraction is float noise.
    Sampling is chunked through counter-based generators keyed by
    (seed, case tag) with the chunk index in the counter block, and chunk
    sums are merged in index order, so any thread count reproduces the
    serial result bit for bit.

Deterministic (dimension one)
    x is integrated out first, as in the proof of the limit: a pair of
    intervals X, Y adds ``int_0^inf nu(r) F(r) dr`` (:func:`_pair_energy`),
    where ``F(r) = int_{x in X, x+r in Y} |u(x+r) - u(x)|^p dx`` plus the
    same with X and Y swapped.  One lock-step call
    (:func:`~plevylab.quadrature.integrate_many`) computes F at every radius
    of an evaluation, its x-panels cut at the field's kinks and jump points
    and at those minus r; the r-integral is one radial kernel integral
    (:func:`~plevylab.kernels.radial_integral`) per interval between the
    breakpoints of F.  Near the origin ``F ~ r^q``, and a kernel's
    closed-form power-law core is integrated in closed form against a fit
    of ``F / r^q``.  Every field takes this one route: a jump field's F is
    ``|du|^p`` times the covariogram of its phases, piecewise linear, and
    its x-panels are exact.  This mode is the oracle the Monte Carlo
    estimates are checked against, and the only mode for jump fields, whose
    Monte Carlo weights are heavy-tailed.

Every pair functional reaches either mode through one entry,
:func:`_estimate`, and so does :func:`gagliardo`, the deterministic
:func:`energy` of a power-window kernel; the fractional rescalings are
kernel families of :mod:`~plevylab.kernels`.

Also here: the symmetrized-difference operator at a point (p = 2) and the
pairing of a test function against the kernel's unit-mass measure (p = 1),
each one radial kernel integral (:func:`~plevylab.kernels.radial_integral`)
of a sphere mean.  Sphere means take one direction rule and one path in
every dimension d = 1 to 3 (in d = 1 the directions +1 and -1).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels as kmod
from .fields import PIECEWISE_CONSTANT
from .geometry import _ROW_BLOCK, IntervalUnion, containment_margin
from .quadrature import _HI_N, _LO_N, QuadratureError, integrate_many

MODE_MC = "mc"
MODE_DET = "deterministic-1d"

_CHUNK = 262_144
# points per field call of a sphere mean in d = 2, 3: a block of whole radii
# whose points and temporaries stay in a core's L2 cache
_SPHERE_BLOCK = 16_384
# radii per reduction of a sphere mean: the nodes of one Gauss panel
_SPHERE_PANEL = _LO_N + _HI_N
# below this radius ``generator`` integrates the quadratic part in closed form
_GENERATOR_CORE_RADIUS = 1e-4
# angles of the sphere mean of ``dirac_pairing`` in d = 2, 3 (``generator``
# takes the default 128 of ``_sphere_pair_mean``)
_PAIRING_ANGLES = 256
_MASK64 = (1 << 64) - 1

DEFAULT_N_SAMPLES = 1_000_000
DEFAULT_SEED = 12345


class EnergyError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnergyEstimate:
    """One functional evaluation: value, uncertainty, and provenance."""

    value: float
    stderr: float
    n_samples: int
    eps: float
    kernel_id: str
    domain_id: str
    field_id: str
    mode: str
    seed: int = None


def _ident(spec):
    kind = spec.get("family") or spec.get("domain") or spec.get("field")
    rest = ",".join("%s=%s" % (k, v) for k, v in sorted(spec.items())
                    if k not in ("family", "domain", "field"))
    return "%s(%s)" % (kind, rest)


def _case_tag(*parts):
    return zlib.crc32("|".join(str(p) for p in parts).encode()) & _MASK64


def _thread_count():
    raw = os.environ.get("PLEVYLAB_THREADS") or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise EnergyError("PLEVYLAB_THREADS must be a positive integer "
                          "(got %r)" % raw)
    return int(raw)


def _chunk_rng(seed, tag, index):
    bitgen = np.random.Philox(key=[seed & _MASK64, tag & _MASK64],
                              counter=[0, 0, index, 0])
    return np.random.Generator(bitgen)


# ---------------------------------------------------------------------------
# Monte Carlo core


def _quotients(field, xs, h, r):
    """|u(x+h) - u(x)| / (1 ^ |h|) from the exact sampled offsets.

    The field's offset difference is exact at any radius, and the radii are
    the sampled values themselves, so the quotient stays accurate where
    concentrated kernels place real mass far below |x| resolution.
    """
    du = np.abs(field.offset_diff(xs, h))
    if not np.all(np.isfinite(du)):
        bad = np.argmax(~np.isfinite(du))
        raise EnergyError("non-finite field value near x=%s" % xs[bad])
    return np.divide(du, np.minimum(1.0, r), out=np.zeros_like(du),
                     where=r > 0.0)


def _mc_double(field, sample_domain, kernel, accept, n, seed, tag):
    """Chunked, thread-stable Monte Carlo for the pair functional.

    A chunk draws its points x by rejection, then the radii of all its
    pairs by the kernel's ``radial_sampler``.  The work after those draws
    runs on blocks of ``_ROW_BLOCK`` rows, whose arrays stay in a core's
    cache: each block draws its slice of the direction stream, forms its
    offsets, ``x + h`` and membership, and writes its kept pairs' weights
    at the running end of one chunk-length buffer.  The counter-based
    stream gives the same numbers when a draw is split into consecutive
    calls; the block length is even because ``integers`` (the d = 1
    directions) draws 32-bit halves that do not carry over from one call
    to the next.  The buffer is summed once, as the single weight array of
    the chunk was, so the chunk sums keep their bits.
    """
    vol = sample_domain.volume()
    p_exp = kernel.p_exp

    def run(index, m):
        rng = _chunk_rng(seed, tag, index)
        xs = sample_domain.sample_uniform(rng, m)
        radii = kmod._draw_radii(kernel, rng, m)
        w = np.empty(m)
        kept = 0
        for lo in range(0, m, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, m)
            r = radii[lo:hi]
            h = kmod._offsets(kernel, r, rng)
            x = xs[lo:hi]
            # row indices select faster than a boolean mask on 2-D arrays
            idx = np.flatnonzero(accept(x + h))
            if idx.size:
                q = _quotients(field, np.take(x, idx, axis=0),
                               np.take(h, idx, axis=0), np.take(r, idx))
                q **= p_exp
                q *= vol
                w[kept:kept + idx.size] = q
                kept += idx.size
        s1 = s2 = 0.0
        if kept:
            w = w[:kept]
            s1 = float(w.sum())
            w *= w
            s2 = float(w.sum())
        return index, s1, s2

    chunks = []
    start = 0
    idx = 0
    while start < n:
        m = min(_CHUNK, n - start)
        chunks.append((idx, m))
        start += m
        idx += 1
    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: run(*c), chunks))
    else:
        results = [run(*c) for c in chunks]
    results.sort(key=lambda t: t[0])
    s1 = math.fsum(r[1] for r in results)
    s2 = math.fsum(r[2] for r in results)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# deterministic 1-D core

# the closed-form core of a kernel reaches at most this radius
_CORE_RADIUS = 1e-5
# x-integrals of the pair profile: relative tolerance, and an absolute floor
# per unit min(1, r)^p, without which a profile near 0 stalls
_X_REL_TOL = 1e-13
_X_ABS_TOL = 1e-14


def _pair_profile(field, p, xp, yp, marks):
    """``F(r) = int |u(x+r) - u(x)|^p dx`` over x in X with x + r in Y,
    plus the same with X and Y swapped, at an array of radii.

    Every (radius, half) problem is one x-integral of a single
    :func:`~plevylab.quadrature.integrate_many` call, cut at the field's
    ``marks`` and at each mark minus r, so that no panel straddles a kink or
    a jump of ``u(x)`` or ``u(x+r)``.  Both halves read the field at the
    positive offset r.  A range unbounded on one side is integrated in the
    distance ``y >= 0`` from its finite end, so that the quadrature's tail
    map ``1/y`` starts where the mass of a decaying field sits; on the
    left the pair is read from its other point ``z = x + r`` (offset -r),
    whose range ends at ``min(bx + r, by)``, not at ``by - r``, which
    would blur the points by the rounding of a large r.  A range unbounded
    on both sides is left to the quadrature, which raises.  A symmetric
    pair (X = Y) integrates one half, doubled: the other is the same
    problem."""
    halves = ((xp, yp),) if xp == yp else ((xp, yp), (yp, xp))

    def profile(r):
        r = np.asarray(r, dtype=float)
        lo, hi, top = (np.concatenate(v) for v in zip(*(
            (np.maximum(ax, ay - r), np.minimum(bx, by - r),
             np.minimum(bx + r, by)) for (ax, bx), (ay, by) in halves)))
        h = np.tile(r, len(halves))
        live = np.flatnonzero(lo < hi)
        out = np.zeros(h.size)
        if live.size:
            h, lo, hi, top = (v[live] for v in (h, lo, hi, top))
            left = np.isinf(lo) & np.isfinite(hi)
            right = np.isfinite(lo) & np.isinf(hi)
            off = np.where(left, -h, h)
            end = np.where(left, top, np.where(right, lo, 0.0))
            sign = np.where(left, -1.0, 1.0)
            one_sided = left | right
            cuts = np.concatenate(
                [np.broadcast_to(marks, (h.size, marks.size)),
                 marks - off[:, None]], axis=1)
            cuts = sign[:, None] * (cuts - end[:, None])

            def f(i, y):
                x = end[i] + sign[i] * y
                du = np.abs(field._offset_diff(x[:, None], off[i][:, None]))
                bad = ~np.isfinite(du) & np.isfinite(x)
                if bad.any():
                    raise EnergyError("non-finite field value near x=%s"
                                      % x[np.argmax(bad)])
                return du ** p

            out[live], _ = integrate_many(
                f, np.where(one_sided, 0.0, lo),
                np.where(one_sided, math.inf, hi), cuts,
                abs_tol=_X_ABS_TOL * np.minimum(1.0, h) ** p,
                rel_tol=_X_REL_TOL)
        out = out.reshape(len(halves), r.size)
        return 2.0 * out[0] if len(halves) == 1 else out[0] + out[1]

    return profile


def _octaves(lo, hi):
    """The split points ``lo 2^k``, k >= 1, below ``min(hi, 1)``; none for
    ``lo = 0``."""
    out = []
    r = 2.0 * lo
    while 0.0 < r < min(hi, 1.0):
        out.append(r)
        r *= 2.0
    return out


def _pair_energy(field, kernel, xp, yp, tol):
    """Pair energy ``int_X int_Y |u(y) - u(x)|^p nu(|y - x|) dy dx`` of the
    intervals X and Y, x integrated out first: ``int_0^inf nu(r) F(r) dr``
    with the profile F of :func:`_pair_profile`.

    F is smooth between its breakpoints, 0 and the finite distances ``|e -
    f|`` between the ends and inner marks of X and of Y, and vanishes below
    the gap between X and Y and beyond their reach.  Each interval between
    breakpoints is one :func:`~plevylab.kernels.radial_integral` with
    weight 1 and factor ``F / 2`` (``/ 2`` undoes the sphere area 2 of
    d = 1), the integrals sharing the error budget ``tol`` equally.

    Pairs that overlap or touch have ``F ~ r^q`` at the origin: q = 1
    across a jump point, q = p on an overlap, q = p + 1 on a continuous
    contact.  An energy that diverges there (``q + 1 <= gamma``) raises
    before any quadrature.  A kernel's closed-form core ``c r^-gamma`` is
    integrated in closed form up to ``r_c``, the power of two at most
    ``min(1e-5, r_1 / 2, origin_pure_radius)``, r_1 the first breakpoint,
    against ``F = r^q (g0 + g1 r)`` fitted at ``r_c / 2`` and ``r_c``.  The
    fit is exact for piecewise affine fields (a power of two keeps the
    slivers ``m - r`` of the x-integrals exact, where 1e-5 itself left
    F(r_c) 1e-11 off), ``O(r_c^2)`` for smooth ones, and free of any power
    map, so it holds as eps -> 0.  A kernel without a core integrates
    ``F / r^q`` against the weight ``r^q`` up to ``min(r_1, 1)``.

    Each r-range ``(lo, hi)`` with ``0 < lo < 1`` (``lo`` clipped to the
    kernel's inner radius: ``r_c``, a cutoff window's inner radius or the
    gap) gets the split points ``lo 2^k`` below ``min(hi, 1)``
    (:func:`_octaves`; doubling is exact).  The adaptive driver would reach
    them by halving toward ``lo`` one octave at a time, one sequential
    evaluation of F, and so one batch of x-integrals, per halving; as
    starting panels they are all evaluated in one call.  The rule stays
    here, not in :func:`~plevylab.kernels.radial_integral`: only the pair
    energy knows its range starts at a core, and split there the
    sphere-mean integrals of :func:`generator`, whose integrand cancels to
    about 1e-8 relative near its core, moved by 2.2e-10.

    On pieces unbounded on opposite sides a piecewise-constant field has
    ``F(r) ~ |u(inf) - u(-inf)|^p r``, infinite against a full-support tail
    ``r^-q``, q <= 2, when an odd number of jumps of size ``jump_size > 0``
    makes the far values differ: that raises before any field value is read.

    A :class:`QuadratureError` names the pair."""
    (ax, bx), (ay, by) = xp, yp
    p, gamma = kernel.p_exp, kernel.origin_exponent
    marks = sorted({*field.kinks, *field.jump_points})
    profile = _pair_profile(field, p, xp, yp, np.array(marks, dtype=float))
    ends = [{a, b, *(m for m in marks if a < m < b)} for a, b in (xp, yp)]
    brk = sorted({0.0} | {abs(e - f) for e in ends[0] for f in ends[1]
                          if math.isfinite(e - f)})
    gap, reach = max(0.0, ay - bx, ax - by), max(by - ax, bx - ay)
    lo_r = max(gap, kernel.inner_radius)
    hi_r = min(reach, kernel.support_radius)
    edges = [[lo, hi] for lo, hi in zip(brk, brk[1:] + [math.inf])
             if lo < hi_r and hi > lo_r]
    q_inf = kernel.tail_exponent
    try:
        if (ax == -math.inf and by == math.inf
                or ay == -math.inf and bx == math.inf) \
                and kernel.support_radius == math.inf \
                and q_inf is not None and q_inf <= 2.0 \
                and field.regularity == PIECEWISE_CONSTANT \
                and len(field.jump_points) % 2 == 1 and field.jump_size > 0.0:
            raise QuadratureError(
                "pair energy diverges at infinity (u(inf) != u(-inf) and "
                "tail exponent %.3g <= 2)" % q_inf)
        core = 0.0
        weights = [0.0] * len(edges)
        if edges and edges[0][0] == 0.0:
            across = any(ax < j <= bx and ay <= j < by
                         or ay < j <= by and ax <= j < bx
                         for j in field.jump_points)
            q = 1.0 if across else p if min(bx, by) > max(ax, ay) \
                else p + 1.0
            if gamma is not None and kernel.inner_radius == 0.0 \
                    and q + 1.0 - gamma <= 0.0:
                raise QuadratureError(
                    "pair energy diverges %s (exponent %.3g <= 0)"
                    % ("at the jump interface" if across
                       else "on the diagonal", q + 1.0 - gamma))
            r_1 = edges[0][1]
            if kernel.origin_pure_radius > 0.0:
                r_c = math.ldexp(0.5, math.frexp(min(
                    _CORE_RADIUS, 0.5 * r_1, kernel.origin_pure_radius))[1])
                g_half, g_full = (profile(np.array([0.5 * r_c, r_c]))
                                  / np.array([0.5 * r_c, r_c]) ** q).tolist()
                g0, g1 = 2.0 * g_half - g_full, (g_full - g_half) / (0.5 * r_c)
                a = q + 1.0 - gamma
                core = kernel.origin_coefficient * (
                    g0 * r_c ** a / a + g1 * r_c ** (a + 1.0) / (a + 1.0))
                edges[0][0] = r_c
            elif r_1 > 1.0:
                edges[0][1] = 1.0
                edges.insert(1, [1.0, r_1])
                weights.insert(0, q)
            else:
                weights[0] = q
        value = core
        for (lo, hi), beta in zip(edges, weights):
            value += kmod.radial_integral(
                kernel, lo, hi, weight_beta=beta,
                factor=lambda r, beta=beta: 0.5 * profile(r) / r ** beta,
                points=_octaves(max(lo, kernel.inner_radius), hi),
                abs_tol=tol / len(edges))
    except QuadratureError as exc:
        raise QuadratureError(
            "%s; in x piece (%g, %g) against partner interval (%g, %g)"
            % (exc, ax, bx, ay, by), achieved=exc.achieved) from exc
    return value


def _require_det_domain(domain):
    """The intervals of a domain the 1-D route can integrate over."""
    if not isinstance(domain, IntervalUnion):
        raise EnergyError("deterministic mode is available on "
                          "one-dimensional interval unions only")
    return domain.intervals


def _estimate(kind, field, kernel, domain, x_set, accept, partners, *,
              mode, n, seed, abs_tol, symmetric=False, tag_sets=()):
    """One pair functional with x over ``x_set``: Monte Carlo keeps the
    pairs whose partner y passes ``accept``, the 1-D route integrates y
    over ``partners()``.  ``domain`` names the estimate; ``kind`` and the
    ids of ``domain``, ``tag_sets`` and the field key the sample streams.

    The deterministic jobs are the interval pairs, each one
    :func:`_pair_energy` with the error budget ``abs_tol / number of
    jobs``, summed in order.  ``symmetric`` (y over the intervals of
    ``x_set`` itself) takes each unordered pair once, a mixed one with
    factor 2.  Monte Carlo refuses a piecewise-constant field, whose weights
    are heavy-tailed."""
    if mode not in (MODE_MC, MODE_DET):
        raise EnergyError("unknown estimator mode %r (expected %r or %r)"
                          % (mode, MODE_MC, MODE_DET))
    if field.dim != domain.dim or field.dim != kernel.dim:
        raise EnergyError("field/domain/kernel dimension mismatch")
    kernel_id, domain_id = _ident(kernel.spec()), _ident(domain.spec())
    field_id = _ident(field.spec())
    if mode == MODE_DET:
        x_ivs, y_ivs = _require_det_domain(x_set), partners()
        if symmetric:
            jobs = [(x_ivs[i], x_ivs[j], 2.0 if j > i else 1.0)
                    for i in range(len(x_ivs)) for j in range(i, len(x_ivs))]
        else:
            jobs = [(xi, yj, 1.0) for xi in x_ivs for yj in y_ivs]
        tol = abs_tol / max(len(jobs), 1)
        value = 0.0
        for x_iv, y_iv, factor in jobs:
            value += factor * _pair_energy(field, kernel, x_iv, y_iv, tol)
        stderr, n, seed = 0.0, 0, None
    else:
        if field.regularity == PIECEWISE_CONSTANT:
            raise EnergyError(
                "Monte Carlo refuses piecewise-constant fields: their "
                "weights are heavy-tailed (infinite variance at p = 1, "
                "infinite energy at p > 1)%s"
                % ("; use mode %r" % MODE_DET if field.dim == 1 else ""))
        if n < 1:
            raise EnergyError("Monte Carlo needs n >= 1 samples (got %r)" % n)
        tag = _case_tag(kind, kernel_id, domain_id,
                        *(_ident(s.spec()) for s in tag_sets), field_id)
        value, stderr = _mc_double(field, x_set, kernel, accept, n, seed, tag)
    return EnergyEstimate(value, stderr, n, kernel.eps, kernel_id, domain_id,
                          field_id, mode, seed)


# ---------------------------------------------------------------------------
# public functionals


def energy(field, domain, kernel, *, mode=MODE_MC, n=DEFAULT_N_SAMPLES,
           seed=DEFAULT_SEED, abs_tol=1e-10):
    """Pair energy over the domain: the double integral of |du|^p nu(x-y)."""
    return _estimate("energy", field, kernel, domain, domain, domain.contains,
                     lambda: _require_det_domain(domain), symmetric=True,
                     mode=mode, n=n, seed=seed, abs_tol=abs_tol)


def cross_energy(field, domain, kernel, *, other=None, mode=MODE_MC,
                 n=DEFAULT_N_SAMPLES, seed=DEFAULT_SEED, abs_tol=1e-10):
    """Energy over pairs leaving the domain: x inside, y outside.

    ``other`` restricts the partner set; by default it is the full
    complement of the domain.
    """
    if other is None:
        def accept(ys):
            return ~domain.contains(ys)

        def partners():
            return domain.complement_pieces()
    else:
        accept = other.contains

        def partners():
            return _require_det_domain(other)
    return _estimate("cross", field, kernel, domain, domain, accept, partners,
                     mode=mode, n=n, seed=seed, abs_tol=abs_tol)


def local_measure(field, domain, subdomain, kernel, *, mode=MODE_MC,
                  n=DEFAULT_N_SAMPLES, seed=DEFAULT_SEED, abs_tol=1e-10):
    """Mass the localized energy measure assigns to a compact subdomain.

    x runs over the subdomain, y over the whole domain; the subdomain must
    be compactly contained (positive clearance).
    """
    margin = containment_margin(domain, subdomain)
    if not margin > 0.0:
        raise EnergyError("subdomain is not compactly contained "
                          "(clearance %.3g)" % margin)
    return _estimate("local", field, kernel, domain, subdomain,
                     domain.contains, lambda: _require_det_domain(domain),
                     tag_sets=(subdomain,), mode=mode, n=n, seed=seed,
                     abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# pointwise operator and test-function pairing


@functools.lru_cache(maxsize=16)
def _sphere_rule(d, n_angle):
    """Directions ``(n_dirs, d)`` and weights of the sphere-mean rule in
    d = 1, 2 or 3, built once per ``(d, n_angle)`` and returned read-only
    (every caller shares them).  d = 1 takes the two directions +1 and -1,
    whatever ``n_angle``; d = 2 takes ``n_angle`` midpoint angles.  Both
    weigh their directions equally (weights ``None``).  d = 3 takes
    ``n_angle`` midpoint longitudes times 48 Gauss-Legendre heights."""
    weights = None
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        theta = (np.arange(n_angle) + 0.5) * (2.0 * math.pi / n_angle)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    elif d == 3:
        n_t = 48
        t, wt = np.polynomial.legendre.leggauss(n_t)
        phi = (np.arange(n_angle) + 0.5) * (2.0 * math.pi / n_angle)
        st = np.sqrt(1.0 - t ** 2)
        dirs = np.concatenate([
            np.column_stack([st * math.cos(p0), st * math.sin(p0), t])
            for p0 in phi])
        weights = np.tile(wt / 2.0, n_angle) / n_angle
        weights.flags.writeable = False
    else:
        raise EnergyError("sphere averages implemented for d <= 3")
    dirs.flags.writeable = False
    return dirs, weights


def _sphere_pair_mean(evaluate, center, radii, n_angle=128,
                      support_radius=None):
    """Mean over directions w of ``evaluate(center + r w)`` at each radius
    (``center`` has d <= 3 entries; ``evaluate`` maps (n, d) points to n
    values).

    A field that is exactly 0.0 at ``|x| >= support_radius`` has mean 0.0
    on every sphere with ``r >= (|center| + support_radius) (1 + 1e-9)``;
    those radii get 0.0 without a field call, the value the field's own
    zeros would give (the margin covers the rounding of ``r w + center``
    and of the field's squared norm).  The direction rule comes from
    :func:`_sphere_rule`, built once per ``(d, n_angle)``.  The other
    radii reach the field in blocks: as many whole radii as fit
    ``_SPHERE_BLOCK`` points, and at least one.  A block's points are
    formed as one long row per radius, ``r * dirs.ravel() +
    tile(center)``: the same product and sum per element as broadcasting
    over ``(radii, dirs, d)``, without an inner loop of length d.  At the
    origin the sum is dropped: ``x + 0.0`` is ``x`` unless ``x`` is -0.0,
    and ``r w`` is never -0.0 when every radius is a normal float, since
    no direction of the rule has a zero coordinate.

    The values are reduced one Gauss panel at a time: the radii in rows
    of ``_LO_N + _HI_N``, the 30 nodes of one quadrature panel, in one
    reused ``(30, n_dirs)`` buffer whose skipped rows hold 0.0, each
    reduced on its own, ``@ weights`` in d = 3 and ``.mean(axis=1)`` in
    d = 1 and 2 (in d = 1 the mean ``(a + b) / 2`` of the values at
    ``center + r`` and ``center - r``).  So a radial integral that hands
    over the nodes of two panels in one call gets the bits of two separate
    calls: the last bit of a BLAS row sum depends on the number of rows,
    and ``generator`` turns such noise into about 5e-10.  The buffer also
    bounds the memory per call, however many radii it gets.
    """
    d = center.size
    radii = np.asarray(radii, dtype=float)
    out = np.zeros(radii.size)
    live = np.ones(radii.size, dtype=bool)
    if support_radius is not None:
        # NaN radii stay live, so their NaN reaches the caller
        cut = (float(np.linalg.norm(center)) + support_radius) * (1.0 + 1e-9)
        live = ~(radii >= cut)
    dirs, weights = _sphere_rule(d, n_angle)
    n_dirs = dirs.shape[0]
    row = dirs.reshape(1, -1)
    shift = None
    if center.any() or not (radii >= np.finfo(float).tiny).all():
        shift = np.tile(center, n_dirs)
    step = max(1, _SPHERE_BLOCK // n_dirs)
    buf = np.empty((min(_SPHERE_PANEL, radii.size), n_dirs))
    for lo in range(0, radii.size, _SPHERE_PANEL):
        keep = np.flatnonzero(live[lo:lo + _SPHERE_PANEL])
        if not keep.size:
            continue
        vals = buf[:min(_SPHERE_PANEL, radii.size - lo)]
        if keep.size < vals.shape[0]:
            vals[:] = 0.0
        for k in range(0, keep.size, step):
            rows = keep[k:k + step]
            pts = radii[lo + rows][:, None] * row
            if shift is not None:
                pts += shift
            vals[rows] = np.asarray(evaluate(pts.reshape(-1, d)),
                                    dtype=float).reshape(rows.size, n_dirs)
        out[lo:lo + vals.shape[0]] = (vals.mean(axis=1) if weights is None
                                      else vals @ weights)
    return out


def generator(field, point, kernel, *, abs_tol=1e-10):
    """Symmetrized nonlocal difference operator at a point (p = 2 only).

    -(1/2) int (u(x+h) + u(x-h) - 2 u(x)) nu(h) dh, evaluated by
    radial-angular quadrature.  The symmetrization kills the first-order
    term, so the integrand is O(|h|^2) at the origin; below
    ``_GENERATOR_CORE_RADIUS`` = 1e-4 that quadratic part is integrated via
    the field's Laplacian and the kernel's second moment (the raw
    difference there is pure float cancellation).  Beyond it the value is
    the kernel's radial integral with weight 1 (``weight_beta = 0``) of
    ``u(x) - mean_{|w|=1} u(x + r w)``; a sphere wholly beyond the field's
    ``support_radius`` has mean 0.0 and is not evaluated.
    """
    if kernel.p_exp != 2.0:
        raise EnergyError("the difference operator is defined for p = 2 "
                          "kernels")
    x0 = np.asarray(point, dtype=float).reshape(-1)
    if not np.isfinite(x0).all():
        raise EnergyError("point must be finite (got %s)" % x0.tolist())
    if x0.size != field.dim or field.dim != kernel.dim:
        raise EnergyError("point/field/kernel dimension mismatch")
    d = kernel.dim
    u0 = float(field.eval(x0.reshape(1, -1))[0])
    lap = float(field.laplacian(x0.reshape(1, -1))[0])
    rc = min(_GENERATOR_CORE_RADIUS, kernel.support_radius)
    core = 0.0
    if kernel.inner_radius < rc:
        m2 = kmod.weighted_moment(kernel, 2.0, rc)
        core = -(lap / (2.0 * d)) * m2

    def gap(r):
        return u0 - _sphere_pair_mean(field.eval, x0, r,
                                      support_radius=field.support_radius)

    return core + kmod.radial_integral(kernel, rc, math.inf, weight_beta=0.0,
                                       factor=gap, abs_tol=abs_tol)


def dirac_pairing(test_fn, kernel, *, abs_tol=1e-10):
    """Pairing of a smooth compactly supported function with the kernel's
    unit-mass measure ``(1 ^ |h|^p) nu(h) dh``.

    As the family concentrates this tends to the value at the origin.  The
    convergence statement is for p = 1 families; other exponents raise.
    The test function states its ``support_radius``, a positive finite
    number, which bounds the radial integral.  The sphere mean in d = 2
    and 3 takes ``_PAIRING_ANGLES`` = 256 angles; a test function that
    states its ``dim`` must share the kernel's.
    """
    if kernel.p_exp != 1.0:
        raise EnergyError("pairing is asserted for p = 1 kernels")
    if getattr(test_fn, "dim", kernel.dim) != kernel.dim:
        raise EnergyError("test function/kernel dimension mismatch")
    rad = getattr(test_fn, "support_radius", None)
    if not isinstance(rad, numbers.Real) or not 0.0 < rad < math.inf:
        raise EnergyError("test function must state a positive finite "
                          "support_radius (got %r)" % (rad,))
    evaluate = getattr(test_fn, "eval", test_fn)
    center = np.zeros(kernel.dim)

    def sphere_mean(r):
        return _sphere_pair_mean(evaluate, center, r, n_angle=_PAIRING_ANGLES)

    return kmod.radial_integral(kernel, 0.0, rad, factor=sphere_mean,
                                abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# fractional seminorm


def gagliardo(field, domain, s, p_exp, *, cutoff=0.0, abs_tol=1e-10):
    """Fractional seminorm: double integral of |du|^p / |x-y|^(d+sp).

    ``cutoff`` restricts to pairs with |x-y| >= cutoff, which is how the
    divergence of non-extension domains is probed without producing inf.
    The value is the deterministic :func:`energy` of the power-window
    kernel.
    """
    if not 0.0 < s < 1.0:
        raise EnergyError("s must lie in (0, 1)")
    d = domain.dim
    kernel = kmod._power_window(d, p_exp, d + s * p_exp, cutoff=cutoff)
    return energy(field, domain, kernel, mode=MODE_DET, abs_tol=abs_tol).value
