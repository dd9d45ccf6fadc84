"""The three benchmark workloads as lists of ops built from a seed.

An op is one suite row, one Monte Carlo estimate, or one kernel/operator
row.  ``build(name, seed, size)`` is the workload's set-up: it constructs
every input the ops need and returns the ops in the order the seed gives.
Each op's ``run`` returns a dict of named float outputs, which the
reference check compares against the outputs recorded in
``reference.json``.

Only public plevylab functions are called.  The ``suite`` rows mirror the
estimator dispatch of ``plevylab.sweep.run_sweep`` one grid point at a
time, because a whole sweep of the three largest cases does not fit a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

import plevylab
from plevylab import constants as cmod
from plevylab import fields as fmod
from plevylab import functionals as emod
from plevylab import geometry as gmod
from plevylab import kernels as kmod
from plevylab import sweep as smod

WORKLOADS = ("suite", "mc", "kernels")

# worker threads per workload, as PLEVYLAB_THREADS
THREADS = {"suite": 1, "mc": 2, "kernels": 1}

MC_SAMPLES = {"full": 1_000_000, "smoke": 65_536}

# ops kept in the reduced-size mode of the self-test
SMOKE = {
    "suite": ("constant-zero", "local-linear", "generator-gaussian-d1",
              "dirac-bump", "frac-small-ball", "w1p-linear-mc"),
    "mc": ("d1-energy-interval-stable-linear",
           "d2-energy-ball-smoothed-gaussian",
           "d3-cross-ball-log-tent"),
    "kernels": ("check/stable/d1/p2/0.1", "check/smoothed_power/d1/p1/0.4",
                "kdp/d3/p1", "generator/d2/0.1", "dirac/stable/d3/0.1"),
}


@dataclass
class Op:
    key: str                  # unique, names the op in results and reference
    kind: str                 # det | mc | calculus | operator
    run: object               # () -> {output name: float}
    dim: int = 1
    samples: int = 0          # Monte Carlo samples drawn by the op
    accept: str = None        # MC pair acceptance: inside | outside
    case: str = None          # suite case id
    meta: dict = field(default_factory=dict)


def build(name, seed, size="full"):
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % name)
    ops = {"suite": _suite_ops, "mc": _mc_ops,
           "kernels": _kernel_ops}[name](seed, size)
    if size == "smoke":
        ops = [op for op in ops if op.key in SMOKE[name]
               or op.case in SMOKE[name]]
    # the seed orders the ops; the work and the outputs do not depend on it
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# suite: one row of each built-in case.  A whole suite pass takes ~80 s, so
# each case contributes its cheapest row: the first grid point, except for
# the two cross-tent cases, whose rows get cheaper as eps shrinks.  The pass
# (~11 s) then fits twice in a run.

_ROW_INDEX = {"cross-tent-p1": -1, "cross-tent-p2": -1}


def _estimate_row(est):
    return {"value": est.value, "stderr": est.stderr}


def _suite_row(case, x):
    fld = fmod.from_spec(case.field_spec)
    dom = gmod.from_spec(case.domain_spec) if case.domain_spec else None
    fam = kmod.family_from_spec(case.family_spec) \
        if case.family_spec else None
    sub = gmod.from_spec(case.subdomain_spec) \
        if case.subdomain_spec else None
    kw = dict(mode=case.mode, n=case.n_samples, seed=case.seed)
    if case.kind == "energy":
        return _estimate_row(emod.energy(fld, dom, fam.kernel(x), **kw))
    if case.kind == "cross":
        return _estimate_row(emod.cross_energy(fld, dom, fam.kernel(x), **kw))
    if case.kind == "local":
        return _estimate_row(emod.local_measure(fld, dom, sub, fam.kernel(x),
                                                **kw))
    if case.kind == "generator":
        return {"value": emod.generator(fld, case.point, fam.kernel(x))}
    if case.kind == "dirac":
        return {"value": emod.dirac_pairing(fld, fam.kernel(x))}
    if case.kind == "gagliardo_cutoff":
        return {"value": emod.gagliardo(fld, dom, case.s_exp, case.p_exp,
                                        cutoff=x)}
    if case.kind == "fractional":
        [(_, val)] = emod.fractional_values(fld, dom, case.p_exp,
                                            case.variant, (x,))
        return {"value": val}
    raise ValueError("unknown sweep kind %r" % case.kind)


def _suite_ops(seed, size):
    cases = smod.builtin_suite(seed=seed, n_samples=MC_SAMPLES[size])
    ops = []
    for case in cases:
        x = case.grid[_ROW_INDEX.get(case.case_id, 0)]
        mc = case.mode == emod.MODE_MC
        ops.append(Op(key="%s@%r" % (case.case_id, x),
                      kind="mc" if mc else "det",
                      run=lambda c=case, x=x: _suite_row(c, x),
                      samples=case.n_samples if mc else 0,
                      accept="inside" if mc else None,
                      case=case.case_id, meta={"eps": x}))
    return ops


# ---------------------------------------------------------------------------
# mc: Monte Carlo energies in d = 1, 2, 3 with two worker threads

def _mc_specs():
    """(key, functional name, field, domain, subdomain, kernel factory)."""
    k = kmod

    def rescaled(d, p, eps):
        return lambda: k.make_rescaled(k.make_stable(d, p, 0.5), eps)

    iv = gmod.interval
    ball = gmod.Ball
    return [
        ("d1-energy-interval-stable-linear", "energy",
         fmod.Linear((1.0,)), iv(0.0, 1.0), None,
         lambda: k.make_stable(1, 2.0, 0.1)),
        ("d1-cross-interval-truncated-tent", "cross_energy",
         fmod.Tent(1), iv(0.0, 1.0), None,
         lambda: k.make_truncated_power(1, 1.0, 0.0, 0.1)),
        ("d1-local-interval-log-gaussian", "local_measure",
         fmod.Gaussian(1), iv(-1.0, 1.0), iv(-0.5, 0.5),
         lambda: k.make_log_limit(1, 2.0, 0.02, 0.5)),
        ("d1-energy-interval-rescaled-bump", "energy",
         fmod.SmoothBump(1, 0.5), iv(-1.0, 1.0), None, rescaled(1, 1.0, 0.1)),
        ("d2-energy-ball-stable-linear", "energy",
         fmod.Linear((1.0, 0.5)), ball(1.0, 2), None,
         lambda: k.make_stable(2, 2.0, 0.1)),
        ("d2-energy-slitball-truncated-tent", "energy",
         fmod.Tent(2), gmod.SlitBall(1.0, 2), None,
         lambda: k.make_truncated_power(2, 1.0, 0.0, 0.1)),
        ("d2-cross-box-rescaled-gaussian", "cross_energy",
         fmod.Gaussian(2), gmod.Box((0.0, 0.0), (1.0, 1.0)), None,
         rescaled(2, 2.0, 0.1)),
        ("d2-local-ball-log-bump", "local_measure",
         fmod.SmoothBump(2, 0.5), ball(1.0, 2), ball(0.5, 2),
         lambda: k.make_log_limit(2, 1.0, 0.02, 0.5)),
        ("d2-energy-ball-smoothed-gaussian", "energy",
         fmod.Gaussian(2), ball(1.0, 2), None,
         lambda: k.make_smoothed_power(2, 2.0, -0.5, 0.1, 0.5)),
        ("d3-energy-ball-stable-linear", "energy",
         fmod.Linear((1.0, 1.0, 0.0)), ball(1.0, 3), None,
         lambda: k.make_stable(3, 1.0, 0.1)),
        ("d3-energy-box-truncated-gaussian", "energy",
         fmod.Gaussian(3), gmod.Box((0.0,) * 3, (1.0,) * 3), None,
         lambda: k.make_truncated_power(3, 2.0, 0.0, 0.1)),
        ("d3-cross-ball-log-tent", "cross_energy",
         fmod.Tent(3), ball(1.0, 3), None,
         lambda: k.make_log_limit(3, 2.0, 0.02, 0.5)),
        ("d3-local-ball-rescaled-bump", "local_measure",
         fmod.SmoothBump(3, 1.0), ball(1.0, 3), ball(0.5, 3),
         rescaled(3, 1.0, 0.1)),
        ("d3-energy-slitball-stable-linear", "energy",
         fmod.Linear((0.0, 0.0, 1.0)), gmod.SlitBall(1.0, 3), None,
         lambda: k.make_stable(3, 2.0, 0.2)),
    ]


def _mc_op(key, name, fld, dom, sub, kern, n, seed):
    args = (fld, dom, kern) if sub is None else (fld, dom, sub, kern)

    def run():
        # looked up per call, so a traced run sees the wrapped functional
        return _estimate_row(getattr(emod, name)(*args, n=n, seed=seed))
    # energy and local_measure accept y inside the domain, cross_energy
    # outside it
    return Op(key=key, kind="mc", run=run, dim=fld.dim, samples=n,
              accept="outside" if name == "cross_energy" else "inside")


def _mc_ops(seed, size):
    # kernels, the smoothed-power table included, are inputs: set-up
    return [_mc_op(key, name, fld, dom, sub, make(), MC_SAMPLES[size], seed)
            for key, name, fld, dom, sub, make in _mc_specs()]


# ---------------------------------------------------------------------------
# kernels: kernel-check rows, the sphere constant and pointwise operators


def _kernel_check(fam, eps):
    kern = fam.kernel(eps)
    return {"normalization": kmod.normalization(kern),
            "mass_outside_0.1": kmod.mass_outside(kern, 0.1),
            "mass_outside_0.5": kmod.mass_outside(kern, 0.5),
            "moment_beta_p_plus_1": kmod.weighted_moment(
                kern, fam.p_exp + 1.0, 1.0)}


def _kdp(d, p):
    k = cmod.compute_kdp(d, p)
    return {"value_mean": k.value_mean, "value_closed": k.value_closed,
            "value_variant": k.value_variant}


def _kernel_ops(seed, size):
    ops = []
    pairs = [(d, p) for d in (1, 2, 3) for p in (1.0, 2.0)]
    for i, (d, p) in enumerate(pairs):
        for fam in kmod.default_families(d, p):
            grid = fam.default_grid()
            if fam.kind == "smoothed_power":
                # each build costs ~1.4 s: one grid point per (d, p), a
                # different one each time, so all five are covered
                grid = (grid[i % len(grid)],)
            for eps in grid:
                ops.append(Op(key="check/%s/d%d/p%d/%r" % (fam.kind, d, p,
                                                           eps),
                              kind="calculus",
                              run=lambda f=fam, e=eps: _kernel_check(f, e),
                              dim=d))
    for d in (2, 3, 4, 5):
        for p in (1.0, 2.0):
            ops.append(Op(key="kdp/d%d/p%d" % (d, p), kind="operator",
                          run=lambda d=d, p=p: _kdp(d, p), dim=d))
    for d in (1, 2, 3):
        fam = kmod.KernelFamily("stable", d, 2.0)
        fld = fmod.Gaussian(d)
        point = np.zeros(d)
        for eps in fam.default_grid():
            ops.append(Op(key="generator/d%d/%r" % (d, eps), kind="operator",
                          run=lambda f=fam, u=fld, x=point, e=eps: {
                              "value": emod.generator(u, x, f.kernel(e))},
                          dim=d))
    for d in (1, 2, 3):
        bump = fmod.SmoothBump(d, 0.5)
        fams = (kmod.KernelFamily("stable", d, 1.0),
                kmod.KernelFamily("truncated_power", d, 1.0, beta=1.0))
        for fam in fams:
            for eps in (0.1, 0.02):
                ops.append(Op(key="dirac/%s/d%d/%r" % (fam.kind, d, eps),
                              kind="operator",
                              run=lambda f=fam, u=bump, e=eps: {
                                  "value": emod.dirac_pairing(u,
                                                              f.kernel(e))},
                              dim=d))
    return ops


def package_versions():
    import scipy
    return {"plevylab": plevylab.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__}
