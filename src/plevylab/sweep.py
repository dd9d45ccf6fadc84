"""Concentration sweeps: run a functional along a parameter grid, compare
against the theorem target, and produce machine-readable reports.

A sweep case packages (field, domain, kernel family, exponent, grid) with a
target kind.  Targets are always recomputed from the fields/constants
modules, never hard-coded, and ``grad_lp`` and ``bv`` targets are scaled by
the family's ``mass_limit()``.  The verdict rule is fixed: a sweep converges
when the final error is within ``max(3 * stderr, 0.05 * scale)`` and the
error is nonincreasing over the last three grid points (no extrapolation); a
sweep whose values stabilize away from the target is recorded as
``diverged-from-target``; cutoff sweeps are judged by the slope of a least
squares fit against log(1/t).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import functionals as emod
from . import fields as fmod
from . import geometry as gmod
from . import kernels as kmod
from .constants import kdp_mean
from .quadrature import QuadratureError

REL_TOL = 0.05
DIVERGENCE_SLOPE = 0.5
STABLE_CHANGE = 0.01

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED_TARGET = "diverged-from-target"
VERDICT_DIVERGENT = "divergent"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SweepCase:
    """One (field, domain, family) sweep with its theorem target."""

    case_id: str
    kind: str                 # energy|cross|local|generator|dirac|gagliardo_cutoff
    field_spec: dict
    p_exp: float
    grid: tuple
    target_kind: str          # grad_lp|bv|zero|pointwise|divergent
    expected: str
    domain_spec: dict = None
    family_spec: dict = None
    subdomain_spec: dict = None
    s_exp: float = None       # fractional order for cutoff sweeps
    point: tuple = None       # evaluation point for the generator
    tol_scale: float = None   # absolute scale for zero targets
    mode: str = emod.MODE_DET
    n_samples: int = emod.DEFAULT_N_SAMPLES
    seed: int = emod.DEFAULT_SEED

    def to_dict(self):
        out = {k: v for k, v in asdict(self).items() if v is not None}
        out["grid"] = list(self.grid)
        if self.point is not None:
            out["point"] = list(self.point)
        return out


@dataclass(frozen=True)
class SweepRow:
    eps: float
    value: float
    stderr: float
    abs_err: float
    rel_err: float

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SweepReport:
    case_id: str
    target_kind: str
    target_value: float
    rows: tuple
    verdict: str
    final_error: float
    detail: str = ""
    expected: str = ""

    @property
    def ok(self):
        return self.verdict == self.expected

    def to_dict(self):
        return {"case_id": self.case_id, "target_kind": self.target_kind,
                "target_value": self.target_value,
                "rows": [r.to_dict() for r in self.rows],
                "verdict": self.verdict, "final_error": self.final_error,
                "detail": self.detail, "expected": self.expected,
                "ok": self.ok}


def report_from_dict(d):
    rows = tuple(SweepRow(**r) for r in d["rows"])
    return SweepReport(case_id=d["case_id"], target_kind=d["target_kind"],
                       target_value=d["target_value"], rows=rows,
                       verdict=d["verdict"], final_error=d["final_error"],
                       detail=d.get("detail", ""),
                       expected=d.get("expected", ""))


def _build(case):
    fld = fmod.from_spec(case.field_spec)
    dom = gmod.from_spec(case.domain_spec) if case.domain_spec else None
    fam = kmod.family_from_spec(case.family_spec) if case.family_spec else None
    sub = gmod.from_spec(case.subdomain_spec) if case.subdomain_spec else None
    return fld, dom, fam, sub


def _target(case, fld, dom, fam, sub):
    kind = case.target_kind
    if kind == "zero":
        return 0.0
    if kind in ("grad_lp", "bv"):
        region = sub if sub is not None else dom
        base = kdp_mean(region.dim, 1.0) * fmod.bv_seminorm(fld, region) \
            if kind == "bv" else kdp_mean(region.dim, case.p_exp) \
            * fmod.grad_lp_norm(fld, region, case.p_exp)
        return (1.0 if fam is None else fam.mass_limit()) * base
    if kind == "pointwise":
        if case.kind == "generator":
            x0 = np.asarray(case.point, dtype=float).reshape(1, -1)
            return -float(fld.laplacian(x0)[0]) / (2.0 * fld.dim)
        if case.kind == "dirac":
            return float(fld.eval(np.zeros((1, fld.dim)))[0])
        raise ValueError("pointwise target undefined for %s" % case.kind)
    if kind == "divergent":
        return math.nan
    raise ValueError("unknown target kind %r" % kind)


def _value_fn(case, fld, dom, fam, sub):
    """The case's functional as grid parameter -> (value, stderr)."""
    kw = dict(mode=case.mode, n=case.n_samples, seed=case.seed)

    def est(e):
        return e.value, e.stderr

    fns = {
        "energy": lambda x: est(emod.energy(fld, dom, fam.kernel(x), **kw)),
        "cross": lambda x: est(emod.cross_energy(fld, dom, fam.kernel(x),
                                                 **kw)),
        "local": lambda x: est(emod.local_measure(fld, dom, sub,
                                                  fam.kernel(x), **kw)),
        "generator": lambda x: (emod.generator(fld, case.point,
                                               fam.kernel(x)), 0.0),
        "dirac": lambda x: (emod.dirac_pairing(fld, fam.kernel(x)), 0.0),
        "gagliardo_cutoff": lambda x: (emod.gagliardo(
            fld, dom, case.s_exp, case.p_exp, cutoff=x), 0.0),
    }
    if case.kind not in fns:
        raise ValueError("unknown sweep kind %r" % case.kind)
    return fns[case.kind]


def _nonincreasing(errs, slack):
    tail = errs[-3:]
    return all(b <= a + s for (a, b), s in zip(zip(tail, tail[1:]),
                                               slack[-2:]))


def _judge(case, target, rows):
    values = [r.value for r in rows]
    stderrs = [r.stderr for r in rows]
    if case.target_kind == "divergent":
        # least squares slope of value against log(1/t)
        logs = [math.log(1.0 / t) for t in (r.eps for r in rows)]
        lbar = sum(logs) / len(logs)
        vbar = sum(values) / len(values)
        num = sum((l - lbar) * (v - vbar) for l, v in zip(logs, values))
        den = sum((l - lbar) ** 2 for l in logs)
        slope = num / den if den else 0.0
        change = abs(values[-1] - values[-2]) / max(abs(values[-1]), 1e-300)
        if slope > DIVERGENCE_SLOPE:
            return (VERDICT_DIVERGENT, slope,
                    "log-fit slope %.4g > %.2g" % (slope, DIVERGENCE_SLOPE))
        if change < STABLE_CHANGE:
            return (VERDICT_CONVERGED, change,
                    "cutoff sweep stabilizes (last relative change %.3g)"
                    % change)
        return VERDICT_INCONCLUSIVE, change, "no clear divergence verdict"
    scale = abs(target)
    if case.target_kind == "zero" and case.tol_scale is not None:
        scale = case.tol_scale
    errs = [r.abs_err for r in rows]
    thresh = max(3.0 * stderrs[-1], REL_TOL * scale)
    slack = [3.0 * (stderrs[i] + stderrs[i + 1]) for i in
             range(len(stderrs) - 1)]
    monotone = _nonincreasing(errs, slack)
    final = errs[-1]
    if final <= thresh and monotone:
        return VERDICT_CONVERGED, final, ""
    settle = abs(values[-1] - values[-2]) \
        <= max(3.0 * (stderrs[-1] + stderrs[-2]), 0.05 * abs(values[-1]))
    if settle and final > thresh:
        return (VERDICT_DIVERGED_TARGET, final,
                "limit exists but != target (value %.6g vs target %.6g)"
                % (values[-1], target))
    return VERDICT_INCONCLUSIVE, final, "errors not settled"


def run_sweep(case):
    """Execute one case and judge it; deterministic given the case seed.

    A row that fails re-raises its error, of the same class and with the
    same attributes, with the case id and the grid value put in front of
    the message.
    """
    fld, dom, fam, sub = _build(case)
    target = _target(case, fld, dom, fam, sub)
    value_at = _value_fn(case, fld, dom, fam, sub)
    rows = []
    for eps in case.grid:
        try:
            value, stderr = value_at(eps)
        except (QuadratureError, emod.EnergyError, kmod.KernelError,
                fmod.FieldError, gmod.DomainError) as exc:
            exc.args = ("case %s at eps=%r: %s" % (case.case_id, eps, exc),)
            raise
        abs_err = abs(value - target) if math.isfinite(target) \
            else math.nan
        rel = abs_err / abs(target) if target else math.nan
        rows.append(SweepRow(eps=eps, value=value, stderr=stderr,
                             abs_err=abs_err, rel_err=rel))
    verdict, final, detail = _judge(case, target, rows)
    return SweepReport(case_id=case.case_id, target_kind=case.target_kind,
                       target_value=target, rows=tuple(rows),
                       verdict=verdict, final_error=final, detail=detail,
                       expected=case.expected)


# ---------------------------------------------------------------------------
# the built-in verification suite


GRID = kmod.DEFAULT_EPS_GRID
CUTOFF_GRID = (1e-2, 1e-3, 1e-4, 1e-5)


def builtin_suite(seed=42, n_samples=emod.DEFAULT_N_SAMPLES):
    """One curated case per limit theorem, plus the counterexample trio."""
    unit = {"domain": "interval_union", "intervals": "0.0:1.0"}
    sym = {"domain": "interval_union", "intervals": "-1.0:1.0"}
    slit = {"domain": "slit_interval"}
    linear = {"field": "linear", "slope": "1.0"}
    stable1 = {"family": "stable", "d": "1", "p": "1.0"}
    stable2 = {"family": "stable", "d": "1", "p": "2.0"}
    cases = [
        SweepCase("w1p-linear-det", "energy", linear, 2.0, GRID, "grad_lp",
                  VERDICT_CONVERGED, domain_spec=unit, family_spec=stable2,
                  seed=seed),
        SweepCase("w1p-linear-mc", "energy", linear, 2.0, GRID, "grad_lp",
                  VERDICT_CONVERGED, domain_spec=unit, family_spec=stable2,
                  mode=emod.MODE_MC, n_samples=n_samples, seed=seed),
        SweepCase("bv-signjump", "energy", {"field": "sign_jump", "d": "1"},
                  1.0, GRID, "bv", VERDICT_CONVERGED, domain_spec=sym,
                  family_spec=stable1, seed=seed),
        SweepCase("constant-zero", "energy",
                  {"field": "linear", "slope": "0.0", "intercept": "1.0"},
                  2.0, GRID, "zero", VERDICT_CONVERGED, domain_spec=unit,
                  family_spec=stable2, tol_scale=1.0, seed=seed),
        SweepCase("cross-tent-p1", "cross", {"field": "tent", "d": "1"},
                  1.0, GRID, "zero", VERDICT_CONVERGED, domain_spec=unit,
                  family_spec=stable1,
                  tol_scale=fmod.sobolev_norm_p(fmod.Tent(1), 1.0),
                  seed=seed),
        SweepCase("cross-tent-p2", "cross", {"field": "tent", "d": "1"},
                  2.0, GRID, "zero", VERDICT_CONVERGED, domain_spec=unit,
                  family_spec=stable2,
                  tol_scale=fmod.sobolev_norm_p(fmod.Tent(1), 2.0),
                  seed=seed),
        SweepCase("local-linear", "local", linear, 2.0, GRID, "grad_lp",
                  VERDICT_CONVERGED, domain_spec=unit, family_spec=stable2,
                  subdomain_spec={"domain": "interval_union",
                                  "intervals": "0.25:0.75"}, seed=seed),
        SweepCase("local-bv-signjump", "local",
                  {"field": "sign_jump", "d": "1"}, 1.0, GRID, "bv",
                  VERDICT_CONVERGED, domain_spec=sym, family_spec=stable1,
                  subdomain_spec={"domain": "interval_union",
                                  "intervals": "-0.5:0.5"}, seed=seed),
        SweepCase("generator-gaussian-d1", "generator",
                  {"field": "gaussian", "d": "1"}, 2.0, GRID, "pointwise",
                  VERDICT_CONVERGED, family_spec=stable2, point=(0.0,),
                  seed=seed),
        SweepCase("generator-gaussian-d2", "generator",
                  {"field": "gaussian", "d": "2"}, 2.0, GRID, "pointwise",
                  VERDICT_CONVERGED,
                  family_spec={"family": "stable", "d": "2", "p": "2.0"},
                  point=(0.0, 0.0), seed=seed),
        SweepCase("dirac-bump", "dirac",
                  {"field": "bump", "d": "1", "radius": "0.5"}, 1.0, GRID,
                  "pointwise", VERDICT_CONVERGED,
                  family_spec={"family": "truncated_power", "d": "1",
                               "p": "1.0", "beta": "1.0"}, seed=seed),
        *(SweepCase(case_id, "energy", linear, 2.0, fam.default_grid(),
                    "grad_lp", VERDICT_CONVERGED, domain_spec=unit,
                    family_spec=fam.spec(), seed=seed)
          for case_id, fam in (
              ("frac-s-to-1", kmod.KernelFamily("frac_order", 1, 2.0)),
              ("frac-small-ball", kmod.KernelFamily("frac_ball", 1, 2.0)),
              ("frac-log-window", kmod.KernelFamily("frac_log", 1, 2.0)))),
        SweepCase("counterexample-energy", "energy",
                  {"field": "sign_jump", "d": "1"}, 1.0, GRID, "grad_lp",
                  VERDICT_DIVERGED_TARGET, domain_spec=slit,
                  family_spec=stable1, seed=seed),
        SweepCase("counterexample-frac-divergent", "gagliardo_cutoff",
                  {"field": "sign_jump", "d": "1"}, 2.0, CUTOFF_GRID,
                  "divergent", VERDICT_DIVERGENT, domain_spec=slit,
                  s_exp=0.5, seed=seed),
        SweepCase("counterexample-frac-regular", "gagliardo_cutoff",
                  {"field": "sign_jump", "d": "1"}, 2.0, CUTOFF_GRID,
                  "divergent", VERDICT_CONVERGED, domain_spec=slit,
                  s_exp=0.25, seed=seed),
    ]
    return cases


def run_suite(seed=42, n_samples=emod.DEFAULT_N_SAMPLES, cases=None):
    cases = builtin_suite(seed=seed, n_samples=n_samples) \
        if cases is None else cases
    return [run_sweep(c) for c in cases]


# ---------------------------------------------------------------------------
# serialization


CSV_HEADER = ("case_id", "family", "d", "p", "eps", "value", "stderr", "n",
              "target", "mode", "seed")


def suite_json(cases, reports, seed):
    payload = {
        "seed": seed,
        "all_ok": all(r.ok for r in reports),
        "cases": [dict(case=c.to_dict(), report=r.to_dict())
                  for c, r in zip(cases, reports)],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def csv_rows(case, report):
    fam = case.family_spec or {}
    d = fam.get("d") or (case.domain_spec or {}).get("d", "1")
    for row in report.rows:
        yield (case.case_id, fam.get("family", case.kind), str(d),
               repr(case.p_exp), repr(row.eps), repr(row.value),
               repr(row.stderr), str(case.n_samples
                                     if case.mode == emod.MODE_MC else 0),
               repr(report.target_value), case.mode, str(case.seed))


def suite_csv(cases, reports):
    lines = [",".join(CSV_HEADER)]
    for c, r in zip(cases, reports):
        for row in csv_rows(c, r):
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"
