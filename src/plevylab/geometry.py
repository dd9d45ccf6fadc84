"""Open domains with exact membership, closed-form volume, and sampling.

Supported kinds: unions of disjoint open intervals (dimension one), axis
boxes, balls, slit balls (a ball with the hyperplane ``x_d = 0`` removed),
and the full space.
Points are always ``(n, dim)`` float arrays.  Sampling is rejection from the
bounding box with a caller-owned generator, so parallel callers stay
independent and every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import unit_ball_volume


class DomainError(ValueError):
    pass


def _check_dim(dim, least=1):
    if isinstance(dim, (bool, np.bool_)) or not isinstance(
            dim, (int, np.integer)) or dim < least:
        raise DomainError("dim must be an integer >= %d (got %r)"
                          % (least, dim))
    return int(dim)


# rows per block of the row-sum kernels: a block's columns, partial sums
# and output stay in a core's L2 cache
_ROW_BLOCK = 16_384


def _row_sums(term, n, lanes):
    """Row sums of ``n`` rows of terms, made a block of rows at a time.

    ``term(lo, hi, j, out)`` writes column ``j``'s terms of rows ``lo:hi``
    into ``out`` and returns it.  Each lane of ``lanes`` lists columns,
    added left to right; the lane sums are then added left to right.
    Floating-point errors are ignored, as ``np.einsum`` and ``np.sum``
    ignore them: an overflowing row is inf, and an inf or NaN row stays so,
    under any ``np.errstate``.
    """
    out = np.empty(n)
    m = min(n, _ROW_BLOCK)
    col = np.empty(m)
    part = np.empty(m) if len(lanes) > 1 else None
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for lo in range(0, n, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, n)
            o, t = out[lo:hi], col[:hi - lo]
            for k, lane in enumerate(lanes):
                acc = o if k == 0 else part[:hi - lo]
                term(lo, hi, lane[0], acc)
                for j in lane[1:]:
                    acc += term(lo, hi, j, t)
                if k:
                    o += acc
    return out


def _row_sq_norms(pts, center=None):
    """Row sums of squares of ``pts - center``, added column by column.

    The order is sequential, ``((x0^2 + x1^2) + x2^2) + ...``.  It is the
    order ``np.sum(..., axis=1)`` and ``np.linalg.norm(..., axis=1)`` add a
    row of fewer than 8 columns in (their pairwise sum starts at 8), so
    ball membership and sampled directions keep the bits they had when the
    norms were those calls.  The temporaries are one block long.
    """
    def term(lo, hi, j, out):
        x = pts[lo:hi, j] if center is None else \
            np.subtract(pts[lo:hi, j], center[j], out=out)
        return np.multiply(x, x, out=out)

    n, d = pts.shape
    return _row_sums(term, n, (range(d),))


def _ball_volume(ball):
    try:
        vol = unit_ball_volume(ball.dim) * ball.radius ** ball.dim
    except OverflowError:
        vol = math.inf
    if vol == math.inf:
        raise DomainError("the volume of %r overflows the float range"
                          % (ball,))
    return vol


def _squared_radius(ball, error=DomainError):
    """``radius ** 2``, the bound of the membership test, which must be a
    positive normal float: an underflowing square would accept no point
    and a rejection sampler would loop for ever.  ``error`` is raised
    otherwise (``fields.SmoothBump`` passes ``FieldError``)."""
    try:
        r2 = ball.radius ** 2
    except OverflowError:
        r2 = math.inf
    if not np.finfo(float).tiny <= r2 < math.inf:
        raise error("the squared radius of %r leaves the float range"
                    % (ball,))
    return r2


def _as_points(x, dim):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1) if dim > 1 else pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DomainError("expected points of shape (n, %d)" % dim)
    return pts


class Domain:
    """Common protocol; concrete kinds override the private hooks."""

    dim: int

    def contains(self, x):
        return self._contains(_as_points(x, self.dim))

    def volume(self):
        raise DomainError("volume undefined for %s" % type(self).__name__)

    def bounding_box(self):
        raise DomainError("%s is unbounded" % type(self).__name__)

    def sample_uniform(self, rng, size=1):
        pts, _ = self.sample_uniform_with_stats(rng, size)
        return pts

    def sample_uniform_with_stats(self, rng, size=1):
        """Rejection sampling from the bounding box.

        Returns ``(points, n_proposed)`` so callers can audit the acceptance
        ratio against ``volume / box_volume``.  Each round proposes as many
        candidates as points are missing.  It draws, scales and tests them
        in blocks of ``_ROW_BLOCK`` rows in one reused buffer and moves each
        block's accepted rows into the output in order.  ``random(out=)``
        on consecutive blocks gives the numbers of one whole draw, so the
        points and the count are those of drawing each round at once.
        """
        lo, hi = self.bounding_box()
        with np.errstate(over="ignore", invalid="ignore"):
            span = hi - lo
        if not np.all(np.isfinite(span)):
            # an infinite corner or a side wider than the float range: every
            # candidate would be inf or NaN and no round would end
            raise DomainError("cannot sample %r: a side of its bounding box "
                              "is not finite" % (self,))
        out = np.empty((size, self.dim))
        buf = np.empty((min(size, _ROW_BLOCK), self.dim))
        got = proposed = 0
        while got < size:
            todo = size - got
            proposed += todo
            for start in range(0, todo, _ROW_BLOCK):
                cand = rng.random(out=buf[:min(_ROW_BLOCK, todo - start)])
                for j in range(self.dim):
                    col = cand[:, j]
                    col *= span[j]
                    col += lo[j]
                idx = np.flatnonzero(self._contains(cand))
                k = idx.size
                # mode="clip" never clips these indices; unlike np.compress
                # it writes straight into ``out`` instead of through a copy
                np.take(cand, idx, axis=0, out=out[got:got + k], mode="clip")
                got += k
        return out, proposed

    def _contains(self, pts):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError


@dataclass(frozen=True)
class IntervalUnion(Domain):
    """Union of pairwise disjoint open intervals on the line."""

    intervals: tuple
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise DomainError("empty interval union")
        ivs = tuple(sorted(ivs))
        for a, b in ivs:
            if not b > a:
                raise DomainError("degenerate interval (%g, %g)" % (a, b))
        for (_, b0), (a1, _) in zip(ivs[:-1], ivs[1:]):
            if a1 < b0:
                raise DomainError("overlapping intervals")
        object.__setattr__(self, "intervals", ivs)

    def _contains(self, pts):
        x = pts[:, 0]
        keep = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            keep |= (x > a) & (x < b)
        return keep

    def volume(self):
        return sum(b - a for a, b in self.intervals)

    def bounding_box(self):
        a = min(a for a, _ in self.intervals)
        b = max(b for _, b in self.intervals)
        return np.array([a]), np.array([b])

    def complement_pieces(self):
        """Open complement as (a, b) pairs, with +-inf end pieces."""
        pieces = []
        prev = -math.inf
        for a, b in self.intervals:
            pieces.append((prev, a))
            prev = b
        pieces.append((prev, math.inf))
        return [(a, b) for a, b in pieces if b > a]

    def spec(self):
        return {"domain": "interval_union",
                "intervals": ";".join("%r:%r" % iv for iv in self.intervals)}


def slit_interval():
    """The one-dimensional slit domain (-1, 0) u (0, 1)."""
    return IntervalUnion(((-1.0, 0.0), (0.0, 1.0)))


def interval(a, b):
    return IntervalUnion(((a, b),))


@dataclass(frozen=True)
class Box(Domain):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise DomainError("corner size mismatch")
        # infinite corners are legal (half-spaces, slabs); NaN is not
        if not all(h > l for l, h in zip(lo, hi)):
            raise DomainError("box has an empty or NaN side")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return len(self.lo)

    def _contains(self, pts):
        keep = np.ones(pts.shape[0], dtype=bool)
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            keep &= pts[:, j] > lo
            keep &= pts[:, j] < hi
        return keep

    def volume(self):
        return float(np.prod([h - l for l, h in zip(self.lo, self.hi)]))

    def bounding_box(self):
        return np.asarray(self.lo), np.asarray(self.hi)

    def spec(self):
        return {"domain": "box",
                "lo": ",".join(repr(v) for v in self.lo),
                "hi": ",".join(repr(v) for v in self.hi)}


@dataclass(frozen=True)
class Ball(Domain):
    radius: float
    dim: int = 2
    center: tuple = None

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise DomainError("radius must be positive and finite (got %r)"
                              % (self.radius,))
        dim = _check_dim(self.dim)
        c = self.center
        c = tuple(0.0 for _ in range(dim)) if c is None else \
            tuple(float(v) for v in c)
        if len(c) != dim:
            raise DomainError("center/dim mismatch")
        if not all(math.isfinite(v) for v in c):
            raise DomainError("center must be finite (got %r)" % (c,))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "center", c)

    def _contains(self, pts):
        return _row_sq_norms(pts, self.center) < _squared_radius(self)

    def volume(self):
        return _ball_volume(self)

    def bounding_box(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def spec(self):
        out = {"domain": "ball", "radius": repr(self.radius),
               "d": str(self.dim)}
        if any(self.center):
            out["center"] = ",".join(repr(v) for v in self.center)
        return out


@dataclass(frozen=True)
class SlitBall(Domain):
    """Ball centered at the origin minus the hyperplane ``x_d = 0``.

    This is the slit ball of the counterexample domains: the hyperplane is
    excluded (open-set convention) even though it has measure zero.
    """

    radius: float
    dim: int = 2

    def __post_init__(self):
        # the one-dimensional slit domain is slit_interval()
        object.__setattr__(self, "dim", _check_dim(self.dim, 2))
        if not 0.0 < self.radius < math.inf:
            raise DomainError("invalid slit ball (radius %r)"
                              % (self.radius,))

    def _contains(self, pts):
        keep = _row_sq_norms(pts) < _squared_radius(self)
        keep &= pts[:, -1] != 0.0
        return keep

    def volume(self):
        return _ball_volume(self)

    def bounding_box(self):
        r = self.radius
        return np.full(self.dim, -r), np.full(self.dim, r)

    def spec(self):
        # "slab" stays in the record: the spec string keys the Monte Carlo
        # stream (functionals._case_tag), so dropping it would move every
        # slit-ball MC value
        return {"domain": "slit_ball", "radius": repr(self.radius),
                "d": str(self.dim), "slab": "0.0"}


@dataclass(frozen=True)
class FullSpace(Domain):
    dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))

    def _contains(self, pts):
        return np.ones(pts.shape[0], dtype=bool)

    def spec(self):
        return {"domain": "full_space", "d": str(self.dim)}


def containment_margin(outer, inner):
    """Clearance of ``inner`` inside ``outer`` (<= 0 means not compact).

    Supports interval unions inside interval unions and concentric-enough
    balls inside balls; other pairs are rejected.
    """
    if isinstance(outer, IntervalUnion) and isinstance(inner, IntervalUnion):
        margin = math.inf
        for a, b in inner.intervals:
            best = -math.inf
            for c, d in outer.intervals:
                if c <= a and b <= d:
                    best = max(best, min(a - c, d - b))
            margin = min(margin, best)
        return margin
    if isinstance(outer, Ball) and isinstance(inner, Ball):
        gap = np.linalg.norm(np.asarray(inner.center)
                             - np.asarray(outer.center))
        return outer.radius - (gap + inner.radius)
    raise DomainError("containment check unsupported for %s in %s"
                      % (type(inner).__name__, type(outer).__name__))


def from_spec(spec):
    """Rebuild a domain from its flat key-value record."""
    kind = spec.get("domain")
    if kind == "interval_union":
        ivs = []
        for part in spec["intervals"].split(";"):
            a, b = part.split(":")
            ivs.append((float(a), float(b)))
        return IntervalUnion(tuple(ivs))
    if kind == "slit_interval":
        return slit_interval()
    if kind == "box":
        lo = tuple(float(v) for v in spec["lo"].split(","))
        hi = tuple(float(v) for v in spec["hi"].split(","))
        return Box(lo, hi)
    if kind == "ball":
        center = spec.get("center")
        if center is not None:
            center = tuple(float(v) for v in center.split(","))
        return Ball(float(spec["radius"]), int(spec.get("d", 2)), center)
    if kind == "slit_ball":
        if float(spec.get("slab", 0.0)) != 0.0:
            raise DomainError("slit ball has no slab (got %r)"
                              % (spec["slab"],))
        return SlitBall(float(spec["radius"]), int(spec.get("d", 2)))
    if kind == "full_space":
        return FullSpace(int(spec.get("d", 1)))
    raise DomainError("unknown domain kind %r" % kind)
