"""Deterministic one-dimensional quadrature for piecewise-smooth radial integrands.

All profiles handled by this package are piecewise power laws (possibly
multiplied by smooth factors), so the strategy is:

* globally adaptive bisection with a nested Gauss-Legendre pair per panel
  (the 10/20-point difference serves as the error estimate),
* explicit split points at known kinks, so every panel sees a smooth
  integrand,
* a power substitution ``x = u**(1/alpha)`` on the panel touching an
  integrable singularity ``f ~ C*x**(alpha-1)`` at a left endpoint 0
  (radial integrals are singular only at the origin, their lower limit),
* the map ``r = 1/t`` for tails on ``(a, inf)``: :func:`integrate` with
  ``b = inf`` integrates up to ``max(a, points, 1)`` as above and the rest
  in ``t``.

The integrand sees every node of the power map.  For small alpha
``u**(1/alpha)`` underflows, and a node can collapse onto the endpoint
(``x == 0``, or ``t == 0`` in a tail) or lose its Jacobian; the map then
raises :class:`QuadratureError` naming alpha instead of scoring the node
0, which is the wrong limit (``C/alpha`` for an exact power law): scored
0, the nodes would make a unit mass read 0.50025 at ``alpha = 1e-3``.

Every driver gives up after ``DEFAULT_MAX_PANELS`` panels per problem.

:func:`integrate_many` runs many such problems in lock-step: each keeps the
panels, tolerance and greedy bisection order of its own :func:`integrate`
call, and every round evaluates one panel pair of every unconverged problem
through one call of a batched integrand ``f(index, x)``.  It serves the
x-integrals of the 1-D pair energies: one call holds the x-integral of
every radius (and half) of one evaluation of a pair profile, each problem
with its own tolerance.  Its infinite ranges take the ``1/t`` tail without
a decay hint.  It takes the cut points of its problems as one NaN-padded
array, a row per problem, and builds the starting panels of all of them
with array operations (drop the points outside the range, sort,
de-duplicate, add the ends), so its set-up has no per-problem Python loop.
The panels of all its heaps live in one ``(4, heaps, slots)`` table of
panel starts, ends, estimates and error estimates: a round gathers every
heap's worst panel with one index and writes each half back with one
scatter, and finished heaps leave with one compaction of the table, which
takes the heaps' owners, tails and tolerances along, so no round gathers
them by heap id.

Single integrals go through :func:`integrate`, a scalar heap with no
per-round array cost: every radial integral, including the r-integral of a
pair energy.  It calls its integrand once on the starting panels of all
contiguous regions that share it (a power-mapped first panel has an
integrand of its own) and once per bisection, on the 60 nodes of both
halves, and each panel sums its two rules with its own ``np.dot``, so
sharing a call moves no bit of an elementwise integrand.  A pair energy's
r-integral starts on one panel per octave above its lower end (17 above
the core radius 2^-17), so the one starting call replaces as many
sequential ones.  The sphere means of ``generator`` and
``dirac_pairing`` are not elementwise: the last bit of their d = 3 ``vals
@ weights`` depends on its row count (4 of 60 Gaussian rows moved when 60
radii were reduced at once instead of 30 at a time), so they reduce their
radii 30 rows, one panel, at a time.  The two drivers stay separate on
purpose: routing every :func:`integrate` call through a one-problem
lock-step call took the ``kernels`` workload of ``perfbench`` from 0.44-0.50
to 0.73-0.76 s per pass (three alternating 12 s runs each, 2-vCPU VM), at
about the same peak RSS (44 MB).  A short integral still pays about 60
us of array bookkeeping per lock-step round (90 us before the panel table)
against about 12 us per bisection in :func:`integrate` (``x**-0.5`` on
(0, 1), 52 rounds, 2-vCPU VM).  The fold would also move pinned values:
the lock-step Gauss sums multiply the weights in and add each row with
``sum(axis=1)``, which differs from this driver's ``np.dot`` in the last
bit (227 of 620 sums of random power laws).

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
_all_weights = np.concatenate([_lo_weights, _hi_weights])

DEFAULT_ABS_TOL = 1e-12
DEFAULT_MAX_PANELS = 4096


class QuadratureError(ArithmeticError):
    """Quadrature did not converge (includes divergent integrals).

    Attributes
    ----------
    achieved : float
        The error estimate at the point of failure (``inf`` when the
        integrand was non-finite).
    problem : int or None
        For :func:`integrate_many`, the index of the problem that failed.
    """

    def __init__(self, message, achieved=float("inf"), problem=None):
        super().__init__(message)
        self.achieved = achieved
        self.problem = problem


def _panel_estimates(f, edges):
    """(high-order estimate, error estimate) of each panel between
    consecutive ``edges``, from one call of ``f`` on all their nodes.

    Each panel sums its 10- and 20-point rules with its own ``np.dot``, so
    its estimates do not depend on the panels that share the call.  The
    caller ignores floating-point errors around it (see
    :func:`_adaptive_pool`)."""
    half = [0.5 * (b - a) for a, b in zip(edges[:-1], edges[1:])]
    mid = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    x = np.array(half)[:, None] * _all_nodes
    x += np.array(mid)[:, None]
    vals = f(x.reshape(-1)).reshape(len(half), -1)
    out = []
    for h, v in zip(half, vals):
        lo = h * float(np.dot(_lo_weights, v[:_LO_N]))
        hi = h * float(np.dot(_hi_weights, v[_LO_N:]))
        out.append((hi, abs(hi - lo)))
    return out


def _adaptive_pool(regions, *, abs_tol, rel_tol):
    """Globally adaptive integral over a pool of ``(f, a, b)`` regions.

    All regions share one error budget: the panel with the worst error
    estimate anywhere in the pool is bisected until the summed estimate
    drops below ``max(abs_tol, rel_tol*|I|)``; the pool stalls at
    ``DEFAULT_MAX_PANELS``.  Returns ``(value, error_estimate)``.
    """
    # one error context for the whole pool: integrands may overflow or
    # divide by zero off their support, and each panel checks finiteness
    with np.errstate(over="ignore", divide="ignore", invalid="ignore",
                     under="ignore"):
        # contiguous regions that share an integrand: one call for all
        # their starting panels
        runs = []
        for f, a, b in regions:
            if b <= a:
                continue
            if runs and runs[-1][0] is f and runs[-1][1][-1] == a:
                runs[-1][1].append(b)
            else:
                runs.append((f, [a, b]))
        heap = []
        total = total_err = 0.0
        for f, edges in runs:
            for a, b, (est, err) in zip(edges[:-1], edges[1:],
                                        _panel_estimates(f, edges)):
                if not math.isfinite(est):
                    raise QuadratureError(
                        "non-finite integrand on (%g, %g)" % (a, b))
                heap.append((-err, len(heap), a, b, est, err, f))
                total += est
                total_err += err
        # the keys (-err, counter) are unique, so the pops do not depend on
        # how the heap was built
        heapq.heapify(heap)
        counter = n_panels = len(heap)
        while total_err > max(abs_tol, rel_tol * abs(total)):
            if n_panels >= DEFAULT_MAX_PANELS:
                raise QuadratureError(
                    "adaptive quadrature stalled: error estimate %.3e after "
                    "%d panels (likely divergent or insufficiently resolved)"
                    % (total_err, n_panels), achieved=total_err)
            if not heap:
                break
            neg_err, _, pa, pb, pest, perr, f = heapq.heappop(heap)
            mid = 0.5 * (pa + pb)
            if mid <= pa or mid >= pb:
                # panel at floating point resolution; accept its estimate
                total_err -= perr
                continue
            # both halves from one integrand call
            (e1, r1), (e2, r2) = _panel_estimates(f, (pa, mid, pb))
            if not (math.isfinite(e1) and math.isfinite(e2)):
                raise QuadratureError(
                    "non-finite integrand near (%g, %g)" % (pa, pb))
            total += (e1 + e2) - pest
            total_err += (r1 + r2) - perr
            for bounds, est_i, err_i in (((pa, mid), e1, r1),
                                         ((mid, pb), e2, r2)):
                counter += 1
                heapq.heappush(heap, (-err_i, counter, bounds[0], bounds[1],
                                      est_i, err_i, f))
            n_panels += 1
    return total, total_err


def _power_mapped(f, alpha):
    """Wrap ``f`` for the substitution ``x = u**(1/alpha)``.

    Valid for an integrable singularity ``f ~ C*x**(alpha-1)`` at 0 with
    ``0 < alpha <= 1``; the transformed integrand is bounded near ``u = 0``.
    ``f`` sees every node.  A node whose Jacobian ``u**(1/alpha - 1) /
    alpha`` is not positive and finite, or whose ``x`` collapses onto 0,
    raises :class:`QuadratureError`: ``f(x) * jac`` is then no longer the
    integrand there (for an exact power law it is ``C/alpha``, not 0), and
    the caller has no ``C`` to put in its place.
    """
    inv = 1.0 / alpha

    def g(u):
        jac = inv * np.power(u, inv - 1.0)
        x = np.power(u, inv)
        if not (((jac > 0) & np.isfinite(jac)).all() and x.all()):
            raise QuadratureError(
                "power map x = u**(1/alpha) collapses nodes onto the "
                "endpoint 0 (alpha=%g)" % alpha)
        return np.asarray(f(x), dtype=float) * jac

    return g


def _pieces(a, b, points):
    """The ``(lo, hi)`` panels of ``(a, b)`` split at the points inside."""
    if b <= a:
        return []
    edges = [a, *sorted({float(p) for p in points if a < p < b}), b]
    return list(zip(edges[:-1], edges[1:]))


def integrate(f, a, b, *, points=(), alpha_left=None, decay_exponent=None,
              abs_tol=DEFAULT_ABS_TOL, rel_tol=1e-12):
    """Integrate ``f`` over ``(a, b)`` with known kinks and endpoint hints.

    ``b`` may be ``math.inf``: the range ``(a, far)`` with
    ``far = max(a, *points, 1)`` is integrated as a finite one, and
    ``(far, inf)`` as ``(0, 1/far)`` under the map ``r = 1/t``.  Only the
    left endpoint takes a singularity hint; every radial integral of the
    package is singular at most at its lower limit (the origin).

    Parameters
    ----------
    points : iterable of float
        Interior kink locations; the interval is split there so every
        sub-panel is smooth inside.
    alpha_left : float, optional
        Endpoint singularity exponent: the integrand behaves like
        ``(x-a)**(alpha_left-1)`` near ``a``.  ``alpha_left <= 0`` means the
        integral diverges and raises.  A hint ``>= 1`` is ignored (no true
        singularity); a hint below 1 needs ``a = 0`` and raises otherwise.
    decay_exponent : float, optional
        For ``b = inf``: ``q`` with ``f(x) ~ C*x**(-q)`` at infinity; it
        supplies the endpoint hint ``alpha = q - 1`` of the mapped tail
        (``q <= 1`` diverges).  Ignored for finite ``b``.

    Returns ``(value, error_estimate)``; on an infinite range both are the
    sums over the finite part and the tail.  More than
    ``DEFAULT_MAX_PANELS`` panels raise :class:`QuadratureError`.
    """
    if b == math.inf:
        points = tuple(points)
        far = max(a, *points, 1.0)
        tol = dict(abs_tol=abs_tol, rel_tol=rel_tol)
        near, near_err = integrate(f, a, far, points=points,
                                   alpha_left=alpha_left, **tol)

        def g(t):
            r = 1.0 / t
            return np.asarray(f(r), dtype=float) * r * r

        alpha = None if decay_exponent is None else decay_exponent - 1.0
        tail, tail_err = integrate(g, 0.0, 1.0 / far, alpha_left=alpha,
                                   **tol)
        return near + tail, near_err + tail_err
    if b <= a:
        return 0.0, 0.0
    if alpha_left is not None and alpha_left <= 0.0:
        raise QuadratureError(
            "divergent endpoint singularity (left alpha=%g <= 0)" % alpha_left)
    regions = [(f, lo, hi) for lo, hi in _pieces(a, b, points)]
    if alpha_left is not None and alpha_left < 1.0:
        if a != 0.0:
            raise QuadratureError("power map needs a = 0 (a=%r, alpha=%g): "
                                  "shift the integrand to 0" % (a, alpha_left))
        hi = regions[0][2]
        regions[0] = (_power_mapped(f, alpha_left), 0.0, hi ** alpha_left)
    return _adaptive_pool(regions, abs_tol=abs_tol, rel_tol=rel_tol)


def _batch_estimates(f, owner, tail, lo, hi):
    """(high-order estimates, error estimates) of many panels from one call
    of ``f(owner, x)``.

    Tail panels live in ``t = 1/r`` and are transformed exactly as
    :func:`integrate` transforms a single tail without a decay hint.  The
    abscissae, the values and the weighted values each live in one buffer
    that is overwritten in place; ``f`` sees every node.
    """
    # one error context from the abscissae on: panel ends may be infinite
    # or overflow, and the caller checks the estimates for finiteness
    with np.errstate(over="ignore", divide="ignore", invalid="ignore",
                     under="ignore"):
        half = 0.5 * (hi - lo)
        r = half[:, None] * _all_nodes
        r += (0.5 * (lo + hi))[:, None]
        has_tail = tail.any()
        if has_tail:
            r[tail] = 1.0 / r[tail]
        vals = f(np.repeat(owner, r.shape[1]), r.reshape(-1))
        vals = np.require(vals, dtype=float,
                          requirements="W").reshape(r.shape)
        if has_tail:
            rt = r[tail]
            vt = vals[tail]
            vt *= rt
            vt *= rt
            vals[tail] = vt
        # row sums, unlike a BLAS matrix-vector product, do not depend on
        # which other panels share the batch
        vals *= _all_weights
        lo_est = vals[:, :_LO_N].sum(axis=1)
        lo_est *= half
        hi_est = vals[:, _LO_N:].sum(axis=1)
        hi_est *= half
        lo_est -= hi_est
        np.abs(lo_est, out=lo_est)
    return hi_est, lo_est


def _padded(points, n):
    """The cut points of ``n`` problems as one float array, a row per
    problem: a 2-D array as it is, else one iterable per problem, its row
    padded with NaN."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        return points.astype(float, copy=False)
    rows = [tuple(p) for p in points]
    counts = np.array([len(r) for r in rows], dtype=np.intp)
    out = np.full((n, max(counts, default=0)), np.nan)
    out[np.arange(out.shape[1]) < counts[:, None]] = [v for r in rows
                                                      for v in r]
    return out


def _edges(lo, hi, points):
    """The panels of every range ``(lo[i], hi[i])`` split at the points of
    row ``i`` strictly inside it, as :func:`_pieces` splits one range:
    ``(starts, ends, counts)``, a row of panel ends per range whose first
    ``counts[i]`` slots hold its panels (none for an empty range)."""
    inside = (points > lo[:, None]) & (points < hi[:, None])
    cuts = np.sort(np.where(inside, points, np.nan), axis=1)  # NaN last
    # a repeated point splits once: pad its copies and sort them last
    cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.nan
    cuts.sort(axis=1)
    count = np.count_nonzero(~np.isnan(cuts), axis=1)
    width = int(count.max(initial=0))
    edges = np.full((lo.size, width + 2), np.nan)
    edges[:, 0] = lo
    edges[:, 1:width + 1] = cuts[:, :width]
    edges[np.arange(lo.size), count + 1] = hi
    return edges[:, :-1], edges[:, 1:], np.where(hi <= lo, 0, count + 1)


def integrate_many(f, a, b, points, *, abs_tol=DEFAULT_ABS_TOL,
                   rel_tol=1e-12):
    """Many independent :func:`integrate` problems advanced in lock-step.

    Problem ``i`` is ``integrate(lambda x: f(i, x), a[i], b[i],
    points=points[i], ...)``: it starts from the same panels (on ``b[i] =
    inf`` the finite part up to ``max(a[i], points[i], 1)`` and the ``1/t``
    tail, without a decay hint), meets its own tolerance and
    bisects by its own greedy rule (worst error first, ties to the earliest
    panel; a panel at floating point resolution is accepted; it stalls at
    ``DEFAULT_MAX_PANELS``).  ``points`` is one 2-D float array with a row
    of cut points per problem, NaN entries being padding, or one iterable
    of points per problem, converted once to such an array.  The panel
    edges of all problems are built from it by array operations: points
    outside ``(a[i], b[i])`` (or ``far``) dropped, the rest sorted and
    de-duplicated, ``a[i]`` placed before and ``b[i]`` (or ``far``) after.
    ``abs_tol`` is one tolerance for every problem or an array with one
    entry per problem.  Each round bisects one panel of every unconverged
    problem, and all nodes of a round go to one call ``f(index, x)`` with
    equal-shape 1-D arrays of problem indices and abscissae, so the Python
    overhead is paid per round, not per panel.

    Returns ``(values, error_estimates)`` as arrays; values agree with the
    separate :func:`integrate` calls up to the summation order of the Gauss
    dot products.  A stall or a non-finite panel raises
    :class:`QuadratureError` whose ``problem`` is the index of the problem
    it happened in.
    """
    a = np.array(a, dtype=float).reshape(-1)
    b = np.array(b, dtype=float).reshape(-1)
    n = a.size
    points = _padded(points, n)
    abs_tol = np.broadcast_to(np.asarray(abs_tol, dtype=float), (n,))
    inf = b == math.inf
    # an infinite range is finite up to far = max(a, points, 1), then a tail
    far = np.fmax(np.maximum(a, 1.0),
                  np.fmax.reduce(points, axis=1, initial=-np.inf))
    starts, ends, counts = _edges(a, np.where(inf, far, b), points)
    # one greedy heap per finite range or tail, each owned by a problem, in
    # heap order: a problem's finite part, then its tail
    owner = np.repeat(np.arange(n), np.where(inf, 2, 1))
    finite = np.arange(n) + np.cumsum(inf) - inf
    tail = np.zeros(owner.size, dtype=bool)
    tail[finite[inf] + 1] = True
    used = np.ones(owner.size, dtype=np.intp)
    used[finite] = counts
    # room for the panels of a few bisections before the first growth
    tab = np.full((4, owner.size, 2 * max(int(used.max(initial=0)), 1) + 16),
                  -np.inf)
    tab[0, finite, :starts.shape[1]] = starts
    tab[1, finite, :ends.shape[1]] = ends
    tab[0, tail, 0] = 0.0
    tab[1, tail, 0] = 1.0 / far[inf]
    totals, errs = _lockstep(f, owner, tail, tab, used, abs_tol[owner],
                             rel_tol, a, b)
    values = np.zeros(n)
    errors = np.zeros(n)
    np.add.at(values, owner, totals)
    np.add.at(errors, owner, errs)
    return values, errors


def _lockstep(f, owner, tail, tab, used, abs_tol, rel_tol, a, b):
    """Run one :func:`_adaptive_pool` heap per row of the panel table
    ``tab``, heap ``h`` from the panels in its first ``used[h]`` slots, owned
    by problem ``owner[h]`` and to its own ``abs_tol[h]``, in lock-step;
    returns the arrays of totals and error estimates.

    ``tab[:, h, k]`` is slot ``k`` of heap ``h``: the panel's ends, its
    estimate and its error estimate, the error -inf in an empty slot.  The
    per-heap arrays are compacted together with the table when heaps
    finish, and the table doubles its slots when a heap fills its row."""
    cap = tab.shape[2]
    pa, pb, est, err = tab
    filled = np.arange(cap) < used[:, None]
    if filled.any():
        rows = np.nonzero(filled)[0]
        lo, hi = pa[filled], pb[filled]
        e, r = _batch_estimates(f, owner[rows], tail[rows], lo, hi)
        bad = ~np.isfinite(e)
        if bad.any():
            k = np.argmax(bad)
            raise QuadratureError("non-finite integrand on (%g, %g)"
                                  % (lo[k], hi[k]),
                                  problem=int(owner[rows[k]]))
        est[filled], err[filled] = e, r
    # sequential left-to-right sums, as _adaptive_pool accumulates them
    total = np.cumsum(np.where(filled, est, 0.0), axis=1)[:, -1]
    total_err = np.cumsum(np.where(filled, err, 0.0), axis=1)[:, -1]
    n_panels = used.copy()
    live = used.copy()
    heap = np.arange(owner.size)    # heap id of each working row
    out_total = np.zeros(heap.size)
    out_err = np.zeros(heap.size)
    while heap.size:
        go = total_err > np.maximum(abs_tol, rel_tol * np.abs(total))
        if n_panels.max() >= DEFAULT_MAX_PANELS:
            stalled = go & (n_panels >= DEFAULT_MAX_PANELS)
            if stalled.any():
                k = np.argmax(stalled)
                i = owner[k]
                raise QuadratureError(
                    "adaptive quadrature stalled on (%g, %g): error estimate "
                    "%.3e after %d panels (likely divergent or insufficiently "
                    "resolved)" % (a[i], b[i], total_err[k], n_panels[k]),
                    achieved=float(total_err[k]), problem=int(i))
        go &= live > 0
        if not go.all():
            done = ~go
            out_total[heap[done]] = total[done]
            out_err[heap[done]] = total_err[done]
            tab = tab[:, go]
            heap, owner, tail, abs_tol, used, total, total_err, n_panels, \
                live = (v[go] for v in (heap, owner, tail, abs_tol, used,
                                        total, total_err, n_panels, live))
            if not heap.size:
                break
        rows = np.arange(heap.size)
        j = np.argmax(tab[3], axis=1)
        qa, qb, qest, qerr = tab[:, rows, j]
        tab[3, rows, j] = -np.inf
        live -= 1
        mid = 0.5 * (qa + qb)
        split = (mid > qa) & (mid < qb)
        s = rows
        if not split.all():
            # a panel at floating point resolution keeps its estimate
            total_err[~split] -= qerr[~split]
            s = np.flatnonzero(split)
            if not s.size:
                continue
            qa, qb, qest, qerr, mid = (v[s] for v in (qa, qb, qest, qerr,
                                                      mid))
        m = s.size
        own = owner[s]
        lo, hi = np.concatenate([qa, mid]), np.concatenate([mid, qb])
        e, r = _batch_estimates(f, np.concatenate([own, own]),
                                np.concatenate([tail[s], tail[s]]), lo, hi)
        if not np.isfinite(e).all():
            k = np.argmax(~(np.isfinite(e[:m]) & np.isfinite(e[m:])))
            raise QuadratureError("non-finite integrand near (%g, %g)"
                                  % (qa[k], qb[k]), problem=int(own[k]))
        total[s] += (e[:m] + e[m:]) - qest
        total_err[s] += (r[:m] + r[m:]) - qerr
        if used.max() + 2 > tab.shape[2]:
            tab = np.concatenate([tab, np.full(tab.shape, -np.inf)], axis=2)
        halves = np.stack([lo, hi, e, r])
        c = used[s]
        tab[:, s, c] = halves[:, :m]
        tab[:, s, c + 1] = halves[:, m:]
        used[s] += 2
        live[s] += 2
        n_panels[s] += 1
    return out_total, out_err

