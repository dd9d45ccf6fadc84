"""Layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each plevylab module, the
private field hooks ``Field._eval``/``_offset_diff``/``_grad`` that the 1-D
oracle calls directly, and every ``RadialKernel``'s profile callables.  No
file of the package is edited; ``uninstall`` puts every attribute back.

Each wrapper is a layer boundary.  It keeps, per thread, a stack of active
layers, so a layer's self time is its duration minus the time of the layer
frames it encloses.  A call into the layer that is already innermost (a
rescaled profile calling its base profile, ``check_normalized`` calling
``normalization``) is passed through without a frame of its own.

Counters and times live in one dict per thread and are summed on demand,
so the two Monte Carlo workers never share a mutable counter.  Spans (name,
start, end, parent, op) are recorded for each benchmark op and each adaptive
``integrate``/``integrate_tail`` call and kept in memory; per-panel
boundaries (integrands, field hooks, kernel profiles) only add to counts and
busy time.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

FAMILIES = ("stable", "rescaled", "truncated_power", "smoothed_power",
            "log_limit")

# counters that must repeat exactly between two traced runs of one commit
EXACT_COUNTERS = ("quadrature.panels", "quadrature.points",
                  "quadrature.nested_calls", "fields.points",
                  "kernels.samples", "geometry.proposed")

_QUAD = "quadrature"
_FIXED = "quadrature.fixed"
_OP = "op"


def _size(x):
    return int(np.size(x))


def _rows(pts):
    return int(np.shape(pts)[0]) if np.ndim(pts) else 1


def _size_arg(args, kwargs):
    """The ``size`` argument of ``f(self_or_kernel, rng, size=1)``."""
    return kwargs.get("size", args[2] if len(args) > 2 else 1)


class _ThreadState:
    __slots__ = ("stack", "counts", "spans", "span_stack")

    def __init__(self):
        self.stack = []          # [layer, child_seconds] frames
        self.counts = defaultdict(float)
        self.spans = []          # finished spans of this thread
        self.span_stack = []     # ids of open spans


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None           # id of the op the main thread is running
        self._t0 = perf_counter()
        self._lock = threading.Lock()
        self._states = []
        self._local = threading.local()
        self._patches = []
        self._next_span = 0

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def totals(self):
        """Sum of every thread's counters.

        Call only while no worker thread runs: between ops, whose thread
        pools have shut down when they return.
        """
        out = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.counts.items():
                out[k] += v
        return dict(out)

    def take_spans(self):
        with self._lock:
            states = list(self._states)
        spans = []
        for st in states:
            spans.extend(st.spans)
            st.spans = []
        spans.sort(key=lambda s: s[3])
        return spans

    # -- frames -------------------------------------------------------------

    def _new_span_id(self):
        with self._lock:
            self._next_span += 1
            return self._next_span

    def wrap(self, layer, fn, *, items=None, after=None, span=None,
             on_enter=None, top=False):
        """Return ``fn`` wrapped as one call into ``layer``.

        ``items(args, kwargs)`` gives the work size counted as
        ``<layer>.items``; ``after(out, args, kwargs, counts)`` adds
        counters derived from the result; ``span`` names a recorded span;
        ``on_enter(st, args, kwargs)`` may return replacement arguments;
        ``top`` also sums ``<layer>.top_s`` over calls not enclosed by
        another call into the same layer.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            counts = st.counts
            if on_enter is not None:
                args, kwargs = on_enter(st, args, kwargs)
            if items is not None:
                counts[layer + ".items"] += items(args, kwargs)
            sid = None
            if span is not None:
                sid = tracer._new_span_id()
                parent = st.span_stack[-1] if st.span_stack else None
                st.span_stack.append(sid)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                counts[layer + ".calls"] += 1
                counts[layer + ".s"] += dt
                counts[layer + ".self_s"] += dt - frame[1]
                if not ok:
                    counts[layer + ".errors"] += 1
                if top and not any(fr[0] == layer for fr in stack):
                    counts[layer + ".top_s"] += dt
                if sid is not None:
                    st.span_stack.pop()
                    st.spans.append((sid, parent, span, t0 - tracer._t0,
                                     t1 - tracer._t0, tracer.op))
            if after is not None:
                after(out, args, kwargs, counts)
            return out

        wrapper.__wrapped__ = fn
        wrapper._perfbench_layer = layer
        return wrapper

    def run_op(self, op_id, fn):
        """Run one benchmark op as the root frame and span of its work."""
        self.op = op_id
        wrapped = self.wrap(_OP, fn, span="op:" + op_id)
        try:
            return wrapped()
        finally:
            self.op = None

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, layer, **kw):
        """Wrap ``owner.name`` as a call into ``layer``.

        A name the package no longer defines is skipped, so a refactor that
        removes a function leaves its counters at 0 instead of breaking the
        traced run.
        """
        old = owner.__dict__.get(name)
        if old is None:
            return
        self._patches.append((owner, name, old))
        setattr(owner, name, self.wrap(layer, old, **kw))

    def uninstall(self):
        self.active = False
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches = []

    def install(self, pkg):
        """Wrap the layer boundaries of the imported plevylab modules."""
        k, f, g = pkg.kernels, pkg.fields, pkg.geometry
        fn, c = pkg.functionals, pkg.constants

        # quadrature: adaptive calls from each module that imports them
        for mod, caller in ((fn, "functionals"), (k, "kernels"),
                            (f, "fields"), (c, "constants")):
            for name in ("integrate", "integrate_tail"):
                self._patch(mod, name, _QUAD, span="quadrature." + name,
                            on_enter=self._integrand_swapper(caller),
                            top=True)
        self._patch(k, "fixed_gauss", _FIXED)

        # functionals: estimators and pointwise operators
        mc_mode = fn.MODE_MC
        default_n = fn.DEFAULT_N_SAMPLES

        def count_mc(out, args, kwargs, counts):
            if kwargs.get("mode", mc_mode) == mc_mode:
                counts["functionals.mc_calls"] += 1
                counts["functionals.mc_samples"] += kwargs.get("n",
                                                               default_n)

        for name in ("energy", "cross_energy", "local_measure"):
            self._patch(fn, name, "functionals.estimator", after=count_mc)
        for name in ("generator", "dirac_pairing"):
            self._patch(fn, name, "functionals.pointwise")

        # kernels: builds, calculus, sampling, profiles
        for fam in FAMILIES:
            self._patch(k, "make_" + fam, "kernels.build." + fam)
        for name in ("normalization", "mass_outside", "weighted_moment",
                     "check_normalized", "smoothing_constant"):
            self._patch(k, name, "kernels.calculus")
        self._patch(k, "sample_offset_with_radii", "kernels.sample",
                    items=_size_arg)
        init = k.RadialKernel.__dict__["__init__"]
        self._patches.append((k.RadialKernel, "__init__", init))
        k.RadialKernel.__init__ = self._kernel_init(init)

        # geometry: rejection sampling and the MC acceptance test
        def count_proposed(out, args, kwargs, counts):
            counts["geometry.proposed"] += out[1]

        def count_inside(out, args, kwargs, counts):
            counts["geometry.inside"] += int(np.count_nonzero(out))

        for cls in _classes(g, g.Domain):
            self._patch(cls, "sample_uniform_with_stats", "geometry.sample",
                        items=_size_arg, after=count_proposed)
            self._patch(cls, "contains", "geometry.contains",
                        items=lambda a, kw: _rows(a[1]), after=count_inside)

        # fields: the private hooks every public method and the oracle use
        for cls in _classes(f, f.Field):
            for name in ("_eval", "_offset_diff", "_grad"):
                self._patch(cls, name, "fields",
                            items=lambda a, kw: _rows(a[1]))

        # constants
        for name in ("compute_kdp", "kdp_mean", "kdp_closed",
                     "kdp_variant_ratio", "kdp_mc"):
            self._patch(c, name, "constants.kdp")
        self.active = True

    def _integrand_swapper(self, caller):
        """Replace the integrand with a counting wrapper on entry."""
        tracer = self

        def on_enter(st, args, kwargs):
            layers = [fr[0] for fr in st.stack]
            if _QUAD in layers:
                st.counts["quadrature.nested_calls"] += 1
            name = caller
            if caller == "functionals":
                name = "functionals.pointwise" \
                    if "functionals.pointwise" in layers else "functionals.det"
            f = tracer.wrap("integrand." + name, args[0],
                            items=lambda a, kw: _size(a[0]))
            return (f,) + tuple(args[1:]), kwargs

        return on_enter

    def _kernel_init(self, init):
        tracer = self

        def wrap_profile(fn):
            if fn is None or getattr(fn, "_perfbench_layer", None):
                return fn
            return tracer.wrap("kernels.profile", fn,
                               items=lambda a, kw: _size(a[0]))

        def __init__(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            if tracer.active:
                object.__setattr__(kernel, "profile",
                                   wrap_profile(kernel.profile))
                object.__setattr__(kernel, "log_profile",
                                   wrap_profile(kernel.log_profile))

        return __init__


def _classes(module, base):
    return [v for v in vars(module).values()
            if isinstance(v, type) and issubclass(v, base)]


# ---------------------------------------------------------------------------
# per-layer metrics from two counter snapshots


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(before, after):
    """Per-layer metrics for the work done between two snapshots."""
    d = defaultdict(float)
    for key in set(before) | set(after):
        d[key] = after.get(key, 0.0) - before.get(key, 0.0)
    integrands = [key[:-len(".calls")] for key in d
                  if key.startswith("integrand.") and key.endswith(".calls")]
    panels = sum(d[lay + ".calls"] for lay in integrands)
    points = sum(d[lay + ".items"] for lay in integrands)
    m = {
        "quadrature.calls": d[_QUAD + ".calls"],
        "quadrature.nested_calls": d["quadrature.nested_calls"],
        "quadrature.panels": panels,
        "quadrature.points": points,
        "quadrature.fixed_gauss_calls": d[_FIXED + ".calls"],
        "quadrature.self_s": d[_QUAD + ".self_s"] + d[_FIXED + ".self_s"],
        "quadrature.errors": d[_QUAD + ".errors"],
        "functionals.det_calls": d["integrand.functionals.det.calls"],
        "functionals.det_self_s": d["integrand.functionals.det.self_s"],
        "functionals.mc_calls": d["functionals.mc_calls"],
        "functionals.mc_samples": d["functionals.mc_samples"],
        "functionals.pointwise_s": d["functionals.pointwise.s"],
        "kernels.profile_calls": d["kernels.profile.calls"],
        "kernels.profile_s": d["kernels.profile.self_s"],
        "kernels.calculus_s": d["kernels.calculus.s"],
        "kernels.samples": d["kernels.sample.items"],
        "kernels.sample_s": d["kernels.sample.s"],
        "geometry.sample_calls": d["geometry.sample.calls"],
        "geometry.proposed": d["geometry.proposed"],
        "geometry.accept_ratio": _ratio(d["geometry.sample.items"],
                                        d["geometry.proposed"]),
        "geometry.sample_s": d["geometry.sample.s"],
        "geometry.contains_points": d["geometry.contains.items"],
        "geometry.contains_s": d["geometry.contains.s"],
        "fields.calls": d["fields.calls"],
        "fields.points": d["fields.items"],
        "fields.points_per_call": _ratio(d["fields.items"],
                                         d["fields.calls"]),
        "fields.s": d["fields.self_s"],
        "constants.kdp_s": d["constants.kdp.s"],
        "trace.op_self_s": d[_OP + ".self_s"],
    }
    # top-level adaptive time per panel: the oracle's nested inner calls are
    # inside their outer call, so summing only top-level calls counts each
    # second once
    m["quadrature.us_per_panel"] = _ratio(d[_QUAD + ".top_s"], panels) * 1e6
    for fam in FAMILIES:
        m["kernels.builds." + fam] = d["kernels.build.%s.calls" % fam]
        m["kernels.build_s." + fam] = d["kernels.build.%s.s" % fam]
    return m


def write_spans(path, spans):
    with open(path, "w") as fh:
        for sid, parent, name, start, end, op in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": round(start, 9),
                                 "end": round(end, 9), "op": op}) + "\n")
