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
    Nested adaptive quadrature over interval pairs, split at every field kink,
    jump point and kernel breakpoint.  Singular cores, where the kernel is an
    exact power law below floating point resolution, are integrated in closed
    form: the inner integral over ``(0, r_c)`` uses the local slope, and the
    outer integral gets an analytic sliver at jump interfaces whose adjacent
    behaviour is ``|x - e|^(1-gamma)``.  Both levels run in lock-step
    (:func:`~plevylab.quadrature.integrate_many`).  Every outer piece of
    every interval pair of an estimate is one problem of a single outer
    call, and each round of it evaluates the inner integrals of all its
    nodes, each against its own partner interval, as one inner batch.  The
    set-up of an inner batch is array code: the ranges, closed-form cores
    and cut points of all its nodes and sides are formed at once, the cut
    points as one NaN-padded row per problem, from which
    :func:`~plevylab.quadrature.integrate_many` builds every problem's
    panels.  Only the core term keeps a scalar ``**`` per node, because
    ``np.power`` can differ from it in the last bit.  A piecewise-constant
    field skips the panels on which its difference is exactly 0.0 and the
    sides that see no jump (``_Oracle._past_zero_panels``), which moves no
    bit.  Every piece, node and
    side keeps the panels and tolerance of its own adaptive integral, while
    fields and kernels see one array per inner round.  This
    mode is the oracle the Monte Carlo estimates are checked against, and
    serves the jump fields whose MC weights are heavy-tailed.

Every pair functional reaches either mode through one entry,
:func:`_estimate`, and so do the truncated fractional seminorms and the
three fractional rescalings that recover the gradient energy: each is the
deterministic :func:`energy` of an unnormalized power-window kernel,
rescaled.

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
from .fields import PIECEWISE_CONSTANT, FieldError
from .geometry import _ROW_BLOCK, IntervalUnion, containment_margin
from .quadrature import (_HI_N, _LO_N, QuadratureError, _all_nodes,
                         integrate_many)

MODE_MC = "mc"
MODE_DET = "deterministic-1d"

_CHUNK = 262_144
# points per field call of a sphere mean in d = 2, 3: a block of whole radii
# whose points and temporaries stay in a core's L2 cache
_SPHERE_BLOCK = 16_384
# radii per reduction of a sphere mean: the nodes of one Gauss panel
_SPHERE_PANEL = _LO_N + _HI_N
_SMALL_R = 1e-8
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

    A chunk draws its points x by rejection, then the radius uniforms of
    all its pairs.  The work after those draws runs on blocks of
    ``_ROW_BLOCK`` rows, whose arrays stay in a core's cache: each block
    draws its slice of the direction stream, forms its offsets, ``x + h``
    and membership, and writes its kept pairs' weights at the running end
    of one chunk-length buffer.  The counter-based stream gives the same
    numbers when a draw is split into consecutive calls; the block length
    is even because ``integers`` (the d = 1 directions) draws 32-bit
    halves that do not carry over from one call to the next.  The buffer
    is summed once, as the single weight array of the chunk was, so the
    chunk sums keep their bits.
    """
    vol = sample_domain.volume()
    p_exp = kernel.p_exp

    def run(index, m):
        rng = _chunk_rng(seed, tag, index)
        xs = sample_domain.sample_uniform(rng, m)
        u = rng.random(m)
        w = np.empty(m)
        kept = 0
        for lo in range(0, m, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, m)
            h, radii = kmod._offsets_from_uniforms(kernel, u[lo:hi], rng)
            x = xs[lo:hi]
            # row indices select faster than a boolean mask on 2-D arrays
            idx = np.flatnonzero(accept(x + h))
            if idx.size:
                q = _quotients(field, np.take(x, idx, axis=0),
                               np.take(h, idx, axis=0), np.take(radii, idx))
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


def _field_marks(field):
    return tuple(field.kinks) + tuple(field.jump_points)


def _geo_points(start, top, origin=0.0):
    """Split points making each panel of every range ``(start[i], top[i])``
    span a bounded ratio from ``origin``: ``origin + (start - origin) *
    8**k`` for k >= 1, those inside the range, one NaN-padded row per range
    (``origin`` is a scalar or one entry per range).

    Power-law integrands vary smoothly on geometric scales; refined this way
    every sub-panel is cheap for Gauss panels regardless of how many decades
    a range covers.  A range starting at ``origin`` itself admits no
    bounded ratio and is left to the adaptive rule.  The powers are running
    products along a row, each exact in binary floating point.
    """
    base = start - origin
    live = base > 0.0
    # 2**(e-1) <= v < 2**e: no power past the exponent gap is below top
    gap = np.frexp(top - origin)[1] - np.frexp(base)[1]
    k = int(gap[live].max(initial=-1)) // 3 + 1
    steps = np.full((base.size, k + 1), 8.0)
    steps[:, 0] = base
    pts = np.reshape(origin, (-1, 1)) \
        + np.multiply.accumulate(steps, axis=1)[:, 1:]
    inside = live[:, None] & (pts < top[:, None]) & (pts > start[:, None])
    return np.where(inside, pts, np.nan)


class _Oracle:
    """The 1-D oracle of one estimate: the field, kernel (with its exponent)
    and tolerances that every interval pair of the estimate shares.

    ``tol`` is the error budget of one interval pair.
    """

    def __init__(self, field, kernel, tol):
        self.field = field
        self.kernel = kernel
        self.p = kernel.p_exp
        self.tol = tol
        self.marks = _field_marks(field)
        self.jumps = np.array(field.jump_points if field.regularity
                              == PIECEWISE_CONSTANT else (), dtype=float)
        self.inner_tol = max(tol * 1e-2, 1e-12)
        self.inner_rel = 1e-9

    # -- inner integrals over y, one batch of nodes x ------------------------

    def _ranges(self, xs, y_lo, y_hi, floor):
        """Set-up of the inner problems of every node of ``xs`` and side
        ``r_lo < r < r_hi`` of it that the kernel sees: ``(node, x, sign,
        core, start, hi, points)``, one entry per problem, node by node and
        the left side (sign -1) first.  ``core`` is the closed-form core
        value, ``(start, hi)`` the range left to quadrature and ``points``
        its cut points, one NaN-padded row per problem."""
        field, kernel, p = self.field, self.kernel, self.p
        if field.regularity != PIECEWISE_CONSTANT:
            slopes = field.grad(xs[:, None])[:, 0]
        y_lo, y_hi, floor = (np.broadcast_to(np.asarray(v, dtype=float),
                                             xs.shape)
                             for v in (y_lo, y_hi, floor))
        # column 0: the side left of x, column 1: the side right of it
        past, before = y_hi <= xs, y_lo >= xs
        r_lo = np.column_stack([np.where(past, xs - y_hi, 0.0),
                                np.where(before, y_lo - xs, 0.0)])
        r_hi = np.column_stack([xs - y_lo, y_hi - xs])
        lo = np.maximum(np.maximum(r_lo, kernel.inner_radius),
                        floor[:, None])
        hi = np.minimum(r_hi, kernel.support_radius)
        keep = np.column_stack([past | ~before, ~past]) & ~(hi <= lo)
        node, side = np.nonzero(keep)
        lo, hi = lo[keep], hi[keep]
        x = xs[node]
        sign = np.where(side == 0, -1.0, 1.0)
        # cut candidates: the field's marks seen from x, the kernel's
        # breakpoints; cuts lie strictly inside (lo, hi)
        cand = np.concatenate(
            [sign[:, None] * (np.array(self.marks, dtype=float) - x[:, None]),
             np.broadcast_to(np.array(kernel.breakpoints, dtype=float),
                             (x.size, len(kernel.breakpoints)))], axis=1)
        cut = (cand > lo[:, None]) & (cand < hi[:, None])
        bounded = np.isfinite(hi)
        first = np.where(cut, cand, np.inf).min(axis=1, initial=np.inf)
        first = np.where(cut.any(axis=1), first, np.where(bounded, hi, 1.0))
        core = np.zeros(x.size)
        start = lo
        # closed-form singular core below floating point comfort, where the
        # field is replaced by its local slope; the core must not reach past
        # the first field kink on this side
        if kernel.origin_pure_radius > 0.0:
            core_top = _SMALL_R if field.regularity == PIECEWISE_CONSTANT \
                else np.minimum(1e-4 * np.maximum(1.0, np.abs(x)), first)
            r_cl = np.minimum(
                np.minimum(np.minimum(core_top, kernel.origin_pure_radius),
                           first * 0.5),
                np.where(bounded, hi * 0.5, core_top))
            cored = (lo == 0.0) & (r_cl > 0.0)
            start = np.where(cored, r_cl, lo)
            if field.regularity != PIECEWISE_CONSTANT:
                slope = slopes[node]
                steep = np.flatnonzero(cored & (np.abs(slope) > 0.0))
                if steep.size:
                    a_in = p - kernel.origin_exponent + 1.0
                    if a_in <= 0.0:
                        raise QuadratureError(
                            "pair energy diverges on the diagonal "
                            "(inner exponent %.3g <= 0)" % a_in)
                    # Python's scalar powers: np.power may differ in the
                    # last bit
                    c = kernel.origin_coefficient
                    core[steep] += [
                        abs(s) ** p * c * r ** a_in / a_in
                        for s, r in zip(slope[steep].tolist(),
                                        r_cl[steep].tolist())]
        # every cut lies above start, since r_cl <= first / 2
        cand = np.where(cut, cand, np.nan)
        # geometric panels up to where an infinite range hands over to the
        # tail map (integrate_many's max(start, points, 1))
        top = np.where(bounded, hi, np.fmax(
            np.maximum(start, 1.0),
            np.fmax.reduce(cand, axis=1, initial=-np.inf)))
        points = np.concatenate([cand, _geo_points(start, top)], axis=1)
        return node, x, sign, core, start, hi, points

    def _past_zero_panels(self, x, sign, start, hi, points):
        """Where a piecewise-constant field is exactly zero, skip it: ``(keep,
        start)``, the problems left and their raised starts.

        ``dist`` is the distance ``sign * (j - x)`` to the nearest jump
        ahead of the node (or behind it within ``margin``, where the node's
        own side is in doubt), ``inf`` if there is none.  With ``margin =
        8 eps max(|x|, max |j|)``, a node ``r + margin < dist`` has ``x +
        sign*r`` round to x's side, so ``_offset_diff`` subtracts equal
        values and the integrand is exactly 0.0 there.  The start rises to
        the largest cut or geometric point ``p + margin < dist`` (the nodes
        of the panels below it exceed ``p`` by an ulp at most, which the
        margin covers), and then past the next panel when its outermost
        node, formed as :func:`~plevylab.quadrature.integrate_many` forms
        it, is zero as well; a problem with nothing left (``dist`` beyond
        its range, or ``inf``) is dropped.  Every panel kept is a panel of
        the full range, so no value moves by a bit: a zero panel has
        estimate and error exactly 0.0, adding 0.0 to the running sums is
        exact, the worst-first bisection never picks a zero-error panel
        while the error is above a positive tolerance, and a dropped side
        only added ``0.0 + 0.0`` to its node.  Only the panel count that
        the stall limit reads falls."""
        jumps = self.jumps
        ahead = sign[:, None] * (jumps - x[:, None])
        margin = 8.0 * np.finfo(float).eps \
            * np.maximum(np.abs(x), np.abs(jumps).max())
        dist = np.where(ahead >= -margin[:, None], ahead, np.inf).min(axis=1)
        below = points + margin[:, None] < dist[:, None]
        lo = np.fmax(start, np.fmax.reduce(np.where(below, points, np.nan),
                                           axis=1, initial=-np.inf))
        # the next edge: a point above lo, else the end of the finite part
        # (integrate_many's far = max(start, points, 1) on an infinite one)
        end = np.where(np.isfinite(hi), hi, np.fmax(
            np.maximum(start, 1.0),
            np.fmax.reduce(points, axis=1, initial=-np.inf)))
        up = np.minimum(np.where(points > lo[:, None], points, np.inf)
                        .min(axis=1, initial=np.inf), end)
        outermost = 0.5 * (up - lo) * _all_nodes.max() + 0.5 * (lo + up)
        start = np.where(outermost + margin < dist, up, lo)
        return (start < hi) & (dist < np.inf), start

    def inner(self, xs, y_lo, y_hi, floor=0.0):
        """Inner integrals over y in ``(y_lo, y_hi)``, beyond ``|y - x| >
        floor``, at every node of ``xs``: one lock-step batch of the
        per-node, per-side quadrature problems that :meth:`_ranges` sets
        up, less the panels on which a piecewise-constant field is exactly
        zero (:meth:`_past_zero_panels`).  The partner range and the floor
        are scalars or arrays with one entry per node.

        A :class:`QuadratureError` of the batch names in ``problem`` the
        node it happened at."""
        xs = np.asarray(xs, dtype=float)
        field, kernel, p = self.field, self.kernel, self.p
        node, x_of, sign_of, core, a, b, pts = self._ranges(xs, y_lo, y_hi,
                                                            floor)
        if self.jumps.size:
            keep, a = self._past_zero_panels(x_of, sign_of, a, b, pts)
            if not keep.all():
                node, x_of, sign_of, core, a, b, pts = (
                    v[keep] for v in (node, x_of, sign_of, core, a, b, pts))

        def f(i, r):
            x = x_of[i]
            # |du|^p nu(r) = exp(p log|du| + log nu(r)), formed in du itself
            du = np.abs(field._offset_diff(x[:, None],
                                           (sign_of[i] * r)[:, None]),
                        dtype=float)
            finite = np.isfinite(du).all()
            if not finite:
                # r = inf arises where 1/t overflows at a subnormal tail
                # node; the tail weight r * r makes that node's value
                # non-finite, and the quadrature raises for it
                bad = ~np.isfinite(du) & np.isfinite(r)
                if bad.any():
                    raise EnergyError("non-finite field value near x=%s"
                                      % x[np.argmax(bad)])
            log_nu = kernel.log_density(r)
            # du = 0 gives exp(p log 0 + log nu) = 0.0 unless log nu is
            # +inf or NaN, or p <= 0 (NaN or +inf); only then is it masked
            zero = None
            if not (finite and p > 0.0 and np.all(log_nu < np.inf)):
                zero = ~(du > 0.0)
            np.log(du, out=du)
            if p != 1.0:
                du *= p
            du += log_nu
            np.exp(du, out=du)
            if zero is not None:
                du[zero] = 0.0
            return du

        try:
            vals, _ = integrate_many(f, a, b, pts,
                                     decay_exponent=kernel.tail_exponent,
                                     abs_tol=self.inner_tol,
                                     rel_tol=self.inner_rel)
        except QuadratureError as exc:
            if exc.problem is not None:
                exc.problem = int(node[exc.problem])
            raise
        out = np.zeros(xs.size)
        np.add.at(out, node, core + vals)
        return out

    # -- outer integral -----------------------------------------------------

    def _outer_cuts(self, ax, bx, y_lo, y_hi):
        kernel = self.kernel
        # an infinite support radius puts no cut inside the finite (ax, bx)
        radii = {0.0, 1.0, kernel.inner_radius, kernel.support_radius,
                 *kernel.breakpoints}
        marks = set(self.marks)
        for m in (y_lo, y_hi):
            if math.isfinite(m):
                marks.add(m)
        cuts = set()
        for m in marks:
            for c in radii:
                for s in (m - c, m + c):
                    if ax < s < bx:
                        cuts.add(s)
        return sorted(cuts)

    def _jump_singular(self, e, toward_right, y_lo, y_hi):
        """Outer exponent at a jump point e, or None when regular there.

        Singular when the kernel reaches the origin with exponent gamma > 1
        and the partner interval ``(y_lo, y_hi)`` has points across the
        jump arbitrarily close to e.
        """
        field, kernel = self.field, self.kernel
        if field.regularity != PIECEWISE_CONSTANT:
            return None
        if not any(abs(e - j) < 1e-14 for j in field.jump_points):
            return None
        if kernel.inner_radius > 0 or kernel.origin_exponent is None:
            return None
        gamma = kernel.origin_exponent
        if gamma <= 1.0:
            return None
        # x approaching e from the right sees the jump against partner
        # points just below e, and vice versa
        if toward_right:
            across = y_lo < e and y_hi >= e
        else:
            across = y_hi > e and y_lo <= e
        if not across:
            return None
        alpha = 2.0 - gamma
        if alpha <= 0.0:
            raise QuadratureError(
                "pair energy diverges at the jump interface "
                "(outer exponent %.3g <= 0)" % alpha)
        return alpha

    def _piece(self, lo, hi, y_lo, y_hi):
        """Set-up of the outer piece ``(lo, hi)`` against ``(y_lo, y_hi)``:
        the closed-form slivers at its singular jump ends, as ``(midpoint,
        width, power part)``, and the ``(a, b, cut points)`` left to the
        outer quadrature (NaN points are padding), or None when nothing is
        left."""
        field, kernel = self.field, self.kernel
        sing_lo = self._jump_singular(lo, True, y_lo, y_hi)
        sing_hi = self._jump_singular(hi, False, y_lo, y_hi)
        # slivers take the closed-form core: none without one
        base_w = min(1e-6 * (hi - lo), 0.45 * kernel.origin_pure_radius)
        for m in self.marks:
            gap = min(abs(lo - m), abs(hi - m))
            if gap > 0:
                base_w = min(base_w, 0.45 * gap)
        slivers = []
        a, b = lo, hi
        for alpha, e, sign, room in ((sing_lo, lo, +1.0, lo - y_lo),
                                     (sing_hi, hi, -1.0, y_hi - hi)):
            if alpha is None or not base_w > 0:
                continue
            # the power part is the jump against the origin power law; the
            # rest is the inner integral at the midpoint beyond the width
            w = min(base_w, 0.45 * room)
            slivers.append((e + sign * 0.5 * w, w,
                            field.jump_size ** self.p
                            * kernel.origin_coefficient * w ** alpha / alpha))
            if sign > 0:
                a = lo + w
            else:
                b = hi - w
        if not b > a:
            return slivers, None
        pts = ()
        if sing_lo is not None or sing_hi is not None:
            # geometric toward each singular end, from lo up and from hi
            # down; the outer quadrature keeps those inside (a, b)
            up, down = _geo_points(np.array([a, hi - b]),
                                   np.array([b, hi - a]),
                                   origin=np.array([lo, 0.0]))
            pts = np.concatenate([up if sing_lo is not None else (),
                                  hi - down if sing_hi is not None else ()])
        return slivers, (a, b, pts)

    def total(self, jobs):
        """Sum of ``factor`` times the pair energy over the ``(x interval,
        y interval, factor)`` jobs.

        Set-up splits each x interval into pieces at the outer cuts of its
        pair (:meth:`_piece`).  Then the sliver midpoints go to one inner
        batch, and the rest of every piece, with tolerance ``tol / number
        of pieces``, to one :func:`~plevylab.quadrature.integrate_many`
        call.  Its integrand hands the inner integrals of all the nodes of
        a round, each against the partner interval of its own piece, to one
        inner batch.  Pieces and pairs sum their terms in a fixed order, so
        the value does not depend on how the pairs are grouped into calls.
        """
        field = self.field
        pairs = []      # per job: (factor, term ids of each piece)
        where = []      # per term: (x piece, partner interval)
        slivers = []    # (term, y_lo, y_hi, midpoint, width, power part)
        outer = []      # (term, a, b, cut points, tolerance, y_lo, y_hi)
        for (ax, bx), (ay, by), factor in jobs:
            pieces = []
            pairs.append((factor, pieces))
            if field.regularity == PIECEWISE_CONSTANT:
                # a piecewise-constant field with no jump inside the hull
                # is constant
                lo, hi = min(ax, ay), max(bx, by)
                if math.isfinite(lo) and math.isfinite(hi) and not any(
                        lo < j < hi for j in field.jump_points):
                    continue
            edges = [ax, *self._outer_cuts(ax, bx, ay, by), bx]
            tol = self.tol / max(len(edges) - 1, 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                terms = []
                pieces.append(terms)
                piece_slivers, rest = self._piece(lo, hi, ay, by)
                for sliver in piece_slivers:
                    terms.append(len(where))
                    slivers.append((terms[-1], ay, by, *sliver))
                    where.append(((lo, hi), (ay, by)))
                if rest is not None:
                    terms.append(len(where))
                    outer.append((terms[-1], *rest, tol, ay, by))
                    where.append(((lo, hi), (ay, by)))
        value = np.zeros(len(where))
        stage = slivers
        try:
            if slivers:
                term, y_lo, y_hi, xs, ws, power = map(np.array, zip(*slivers))
                value[term] = power + ws * self.inner(xs, y_lo, y_hi,
                                                      floor=ws)
            if outer:
                stage = outer
                term, a, b, pts, tol, y_lo, y_hi = zip(*outer)
                y_lo, y_hi = np.array(y_lo), np.array(y_hi)

                def f(i, x):
                    try:
                        return self.inner(x, y_lo[i], y_hi[i])
                    except QuadratureError as exc:
                        if exc.problem is not None:
                            exc.problem = int(i[exc.problem])
                        raise

                value[list(term)], _ = integrate_many(f, a, b, pts,
                                                      abs_tol=np.array(tol))
        except QuadratureError as exc:
            if exc.problem is None:
                raise
            (lo, hi), (ay, by) = where[stage[exc.problem][0]]
            raise QuadratureError(
                "%s; in x piece (%g, %g) against partner interval (%g, %g)"
                % (exc, lo, hi, ay, by), achieved=exc.achieved,
                problem=exc.problem) from exc
        value = value.tolist()
        total = 0.0
        for factor, pieces in pairs:
            pair = 0.0
            for terms in pieces:
                val = 0.0
                for t in terms:
                    val += value[t]
                pair += val
            total += factor * pair
        return total


def _require_det_domain(domain):
    """The intervals of a domain the 1-D oracle can integrate over."""
    if not isinstance(domain, IntervalUnion):
        raise EnergyError("deterministic mode is available on "
                          "one-dimensional interval unions only")
    return domain.intervals


def _estimate(kind, field, kernel, domain, x_set, accept, partners, *,
              mode, n, seed, abs_tol, symmetric=False, tag_sets=()):
    """One pair functional with x over ``x_set``: Monte Carlo keeps the
    pairs whose partner y passes ``accept``, the 1-D oracle integrates y
    over ``partners()``.  ``domain`` names the estimate; ``kind`` and the
    ids of ``domain``, ``tag_sets`` and the field key the sample streams.

    The oracle's jobs are the interval pairs, each with the error budget
    ``abs_tol / number of jobs``.  ``symmetric`` (y over the intervals of
    ``x_set`` itself) takes each unordered pair once, a mixed one with
    factor 2."""
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
        value = _Oracle(field, kernel, tol).total(jobs)
        stderr, n, seed = 0.0, 0, None
    else:
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
    if not hasattr(field, "laplacian"):
        raise FieldError("generator needs a field with an analytic "
                         "laplacian (C^2)")
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

    support = getattr(field, "support_radius", None)

    def gap(r):
        return u0 - _sphere_pair_mean(field.eval, x0, r,
                                      support_radius=support)

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
# fractional seminorms


def _power_window_kernel(dim, p_exp, gamma, *, cutoff=0.0, top=math.inf):
    """Unnormalized |h|^(-gamma) window kernel for the fractional scalings:
    the exact power law on ``cutoff < r <= top``, a closed-form core when
    ``cutoff = 0``."""

    def log_profile(r):
        r = np.asarray(r, dtype=float)
        out = -gamma * np.log(r)
        if top < math.inf:
            out = np.where(r <= top, out, -np.inf)
        if cutoff > 0.0:
            out = np.where(r > cutoff, out, -np.inf)
        return out

    core = cutoff == 0.0
    breaks = tuple(b for b in (cutoff, top) if 0.0 < b < math.inf)
    return kmod.RadialKernel(
        dim=dim, p_exp=p_exp, log_profile=log_profile,
        support_radius=top, inner_radius=cutoff,
        origin_exponent=gamma if core else None,
        origin_coefficient=1.0 if core else None,
        origin_pure_radius=math.inf if core else 0.0,
        tail_exponent=gamma, breakpoints=breaks,
        family_tag="power_window",
        params={"gamma": gamma, "cutoff": cutoff})


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
    kernel = _power_window_kernel(d, p_exp, d + s * p_exp, cutoff=cutoff)
    return energy(field, domain, kernel, mode=MODE_DET, abs_tol=abs_tol).value


def fractional_values(field, domain, p_exp, variant, grid, *, abs_tol=1e-10):
    """The three fractional rescalings, evaluated on a parameter grid.

    variant 1: (1-s) times the fractional seminorm, s -> 1.
    variant 2: eps^-d times the difference-quotient energy over |x-y| < eps.
    variant 3: 1/|log eps| times the |h|^(-d-p) energy over |x-y| > eps.

    Each value is the deterministic :func:`energy` of a power-window
    kernel, rescaled.  Returns a list of (parameter, value) pairs.
    """
    if variant not in (1, 2, 3):
        raise EnergyError("variant must be 1, 2 or 3")
    d = domain.dim

    def raw(kernel):
        return energy(field, domain, kernel, mode=MODE_DET,
                      abs_tol=abs_tol).value

    rows = []
    for x in grid:
        if variant == 1:
            if not 0.0 < x < 1.0:
                raise EnergyError("s must lie in (0, 1)")
            val = (1.0 - x) * raw(_power_window_kernel(d, p_exp,
                                                       d + x * p_exp))
        elif variant == 2:
            val = raw(_power_window_kernel(d, p_exp, float(p_exp),
                                           top=x)) / x ** d
        else:
            val = raw(_power_window_kernel(d, p_exp, d + float(p_exp),
                                           cutoff=x)) / abs(math.log(x))
        rows.append((x, val))
    return rows
