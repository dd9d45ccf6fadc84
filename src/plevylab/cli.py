"""Command line surface: every operation as a subcommand with reproducible
seeds and machine-readable output (CSV by default, JSON via --format).

Exit codes: 0 success, 1 usage error (an unwritable ``--output`` included:
it is opened before any computation), 2 numerical failure (any
``ArithmeticError``: quadrature that did not converge, overflow, division
by zero) or a sweep that diverged unexpectedly.  Output for identical
(argv, seed) is byte-identical; the PLEVYLAB_THREADS environment variable
controls worker threads without changing results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

import numpy as np

from . import functionals as emod
from . import fields as fmod
from . import geometry as gmod
from . import kernels as kmod
from . import sweep as smod
from .constants import compute_kdp, kdp_mc

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


# a number or a comma list of numbers, such as -1e-3 or -0.5,0.2
_NUMBER = r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
_NUMBERS = re.compile(r"%s(?:,%s)*\Z" % (_NUMBER, _NUMBER), re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Exits with USAGE_ERROR and a one-line message on bad input, and reads
    every argument that is a number or a comma list of numbers as a value:
    argparse alone takes only plain decimals such as -1 or -0.5 for values,
    and -1e-3 or -0.5,0.2 for unknown options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NUMBERS

    def error(self, message):
        sys.stderr.write("error: %s (see %s --help)\n" % (message, self.prog))
        raise SystemExit(USAGE_ERROR)


class _UsageError(Exception):
    """Bad input found after argument parsing; exits with USAGE_ERROR."""


def _at_least(kind, low):
    def parse(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise ValueError(text)
        return value
    # argparse names a type by __name__ when it rejects a value
    parse.__name__ = "finite %s >= %s" % (kind.__name__, low)
    return parse


def finite(text):
    """Type of the domain and field extents; argparse reports a bad value
    by this name."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def coordinates(text):
    """Type of --point; argparse reports a bad value by this name."""
    return [finite(v) for v in text.split(",")]


def _open_output(path):
    """The stream the command writes to: stdout, or the ``--output`` file,
    opened (created or truncated) before any computation, so that a path
    that cannot be written fails at once."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise _UsageError("cannot write --output %s: %s"
                          % (path, exc.strerror)) from None


def _emit(lines, args):
    args.out.write("\n".join(lines) + "\n")


def _csv(header, rows):
    out = [",".join(header)]
    out.extend(",".join(str(c) for c in row) for row in rows)
    return out


def _json_rows(header, rows):
    payload = [dict(zip(header, row)) for row in rows]
    return [json.dumps(payload, sort_keys=True, separators=(",", ":"))]


def _rows_out(header, rows, args):
    if args.format == "json":
        _emit(_json_rows(header, rows), args)
    else:
        _emit(_csv(header, rows), args)


def _load_config(path):
    spec = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError("cannot read config %s: %s" % (path, exc)) from None
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        if not eq or not key.strip():
            raise _UsageError("config %s line %d: expected key=value, "
                              "got %r" % (path, number, line))
        spec[key.strip()] = val.strip()
    return spec


_KERNEL_NUMBERS = {"d": int, "p": float, "eps": float,
                   **dict.fromkeys(kmod.FAMILY_PARAM_NAMES, float)}


def _kernel_spec(args):
    """Kernel flags merged over the --config file values, and the family
    they name (a parameter the family does not take is a usage error)."""
    spec = {"family": "stable"}
    if args.config:
        spec.update(_load_config(args.config))
    for key in ("family", *_KERNEL_NUMBERS):
        val = getattr(args, key)
        if val is not None:
            spec[key] = str(val)
    if spec["family"] not in kmod.FAMILY_KINDS:
        raise _UsageError("unknown family %r; known: %s"
                          % (spec["family"], ", ".join(kmod.FAMILY_KINDS)))
    for key, number in _KERNEL_NUMBERS.items():
        try:
            value = number(spec.get(key, "1"))
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise _UsageError("%s=%r is not a finite %s"
                              % (key, spec[key], number.__name__))
    if int(spec.get("d", "1")) < 1:
        raise _UsageError("d must be >= 1 (got %s)" % spec["d"])
    try:
        return spec, kmod.family_from_spec(spec)
    except kmod.KernelError as exc:
        raise _UsageError(str(exc)) from None


def _flag_values(build):
    """Report a domain or field that rejects its flag values as a usage
    error."""
    def checked(*args):
        try:
            return build(*args)
        except (gmod.DomainError, fmod.FieldError) as exc:
            raise _UsageError(str(exc)) from None
    return checked


def _same_dims(**dims):
    """Reject flags that build objects of different dimensions."""
    if len(set(dims.values())) > 1:
        raise _UsageError("dimension mismatch: " + ", ".join(
            "%s d=%d" % item for item in dims.items()))


@_flag_values
def _domain_from(args, spec):
    """The ``--domain`` in the dimension of the merged kernel ``spec``
    (default 2 for the balls)."""
    name = args.domain
    if name == "interval":
        return gmod.interval(args.xa, args.xb)
    if name == "slit-interval":
        return gmod.slit_interval()
    if name == "ball":
        return gmod.Ball(args.radius, int(spec.get("d", 2)))
    if name == "slit-ball":
        return gmod.SlitBall(args.radius, int(spec.get("d", 2)))
    raise SystemExit(USAGE_ERROR)


@_flag_values
def _field_from(args, spec):
    """The ``--field`` in the dimension of the merged kernel ``spec``
    (default 1)."""
    name = args.field
    d = int(spec.get("d", 1))
    if name == "linear":
        return fmod.Linear(tuple([1.0] * d))
    if name == "gaussian":
        return fmod.Gaussian(d)
    if name == "tent":
        return fmod.Tent(d)
    if name == "bump":
        return fmod.SmoothBump(d, args.bump_radius)
    if name == "sign-jump":
        return fmod.SignJump(d)
    raise SystemExit(USAGE_ERROR)


def _cmd_constant(args):
    header = ("d", "p", "value_mean", "value_closed", "value_mc",
              "mc_stderr", "value_variant", "discrepancy")
    rows = []
    for d in args.d_list:
        for p in args.p_list:
            k = compute_kdp(d, p)
            mc, se = kdp_mc(d, p, n=args.n, seed=args.seed)
            rows.append((d, repr(p), repr(k.value_mean),
                         repr(k.value_closed), repr(mc), repr(se),
                         repr(k.value_variant), repr(k.discrepancy)))
    _rows_out(header, rows, args)
    return 0


def _grid(spec, fam):
    """The eps of the merged kernel ``spec``, else the family's grid."""
    return [float(spec["eps"])] if "eps" in spec else fam.default_grid()


def _cmd_kernel_check(args):
    spec, fam = _kernel_spec(args)
    grid = _grid(spec, fam)
    header = ("family", "d", "p", "eps", "normalization", "mass_outside_0.1",
              "mass_outside_0.5", "moment_beta_p_plus_1")
    rows = []
    for eps in grid:
        kern = fam.kernel(eps)
        rows.append((fam.kind, fam.dim, repr(fam.p_exp), repr(eps),
                     repr(kmod.normalization(kern)),
                     repr(kmod.mass_outside(kern, 0.1)),
                     repr(kmod.mass_outside(kern, 0.5)),
                     repr(kmod.weighted_moment(kern, fam.p_exp + 1.0, 1.0))))
    _rows_out(header, rows, args)
    return 0


def _cmd_energy(args):
    spec, fam = _kernel_spec(args)
    if "eps" not in spec:
        raise _UsageError("energy needs --eps (or eps= in the --config file)")
    kern = fam.kernel(float(spec["eps"]))
    dom = _domain_from(args, spec)
    fld = _field_from(args, spec)
    _same_dims(kernel=kern.dim, domain=dom.dim, field=fld.dim)
    est = emod.energy(fld, dom, kern, mode=args.mode, n=args.n,
                      seed=args.seed)
    header = ("family", "d", "p", "eps", "value", "stderr", "n", "mode",
              "seed")
    rows = [(kern.family_tag, kern.dim, repr(kern.p_exp), repr(kern.eps),
             repr(est.value), repr(est.stderr), est.n_samples, est.mode,
             args.seed)]
    _rows_out(header, rows, args)
    return 0


def _cmd_generator(args):
    spec, fam = _kernel_spec(args)
    fld = _field_from(args, spec)
    point = np.zeros(fld.dim) if args.point is None \
        else np.array(args.point)
    _same_dims(kernel=fam.dim, field=fld.dim, point=point.size)
    if fam.dim > 3:
        raise _UsageError("generator needs d <= 3 (got d=%d)" % fam.dim)
    grid = _grid(spec, fam)
    header = ("family", "d", "p", "eps", "value")
    rows = []
    for eps in grid:
        val = emod.generator(fld, point, fam.kernel(eps))
        rows.append((fam.kind, fam.dim, repr(fam.p_exp), repr(eps),
                     repr(val)))
    _rows_out(header, rows, args)
    return 0


def _run_cases(cases, args):
    reports = [smod.run_sweep(c) for c in cases]
    if args.format == "json":
        _emit([smod.suite_json(cases, reports, args.seed)], args)
    else:
        _emit(smod.suite_csv(cases, reports).splitlines(), args)
    return 0 if all(r.ok for r in reports) else NUMERICAL_ERROR


def _cmd_sweep(args):
    all_cases = {c.case_id: c for c in smod.builtin_suite(
        seed=args.seed, n_samples=args.n)}
    if args.case not in all_cases:
        raise _UsageError("unknown case %r; known: %s"
                          % (args.case, ", ".join(sorted(all_cases))))
    return _run_cases([all_cases[args.case]], args)


def _cmd_suite(args):
    return _run_cases(smod.builtin_suite(seed=args.seed, n_samples=args.n),
                      args)


def _cmd_counterexample(args):
    cases = [c for c in smod.builtin_suite(seed=args.seed, n_samples=args.n)
             if c.case_id.startswith("counterexample")]
    return _run_cases(cases, args)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=emod.DEFAULT_SEED,
                     help="deterministic seed (fixed default, never "
                          "time-based)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, help="write to file instead "
                                                    "of stdout")


def _add_samples(sub):
    sub.add_argument("--n", type=_at_least(int, 1),
                     default=emod.DEFAULT_N_SAMPLES)


def _add_kernel_flags(sub):
    sub.add_argument("--family", default=None, choices=kmod.FAMILY_KINDS,
                     help="default: family= in --config, else stable")
    sub.add_argument("--d", default=None)
    sub.add_argument("--p", default=None)
    sub.add_argument("--eps", default=None)
    for name in kmod.FAMILY_PARAM_NAMES:
        sub.add_argument("--" + name.replace("_", "-"), dest=name,
                         default=None)
    sub.add_argument("--config", default=None,
                     help="key=value kernel file merged under explicit flags")


def _add_field_flags(sub, choices, default):
    sub.add_argument("--field", default=default, choices=choices)
    sub.add_argument("--bump-radius", dest="bump_radius", type=finite,
                     default=1.0)


def _check_threads():
    try:
        emod._thread_count()
    except emod.EnergyError as exc:
        raise _UsageError(str(exc)) from None


def build_parser():
    parser = _Parser(prog="plevylab",
                     description="nonlocal energy laboratory for "
                                 "concentrated p-Levy kernels")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("constant", help="the sphere moment constant, "
                                         "three routes")
    p.add_argument("--d", dest="d_list", type=_at_least(int, 1),
                   action="append", required=True)
    p.add_argument("--p", dest="p_list", type=_at_least(float, 1.0),
                   action="append", required=True)
    _add_samples(p)
    _add_common(p)
    p.set_defaults(func=_cmd_constant)

    p = subs.add_parser("kernel-check", help="normalization and tail mass "
                                             "along a family grid")
    _add_kernel_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_kernel_check)

    p = subs.add_parser("energy", help="one pair-energy estimate")
    _add_kernel_flags(p)
    _add_field_flags(p, ("linear", "gaussian", "tent", "bump", "sign-jump"),
                     "linear")
    p.add_argument("--domain", default="interval",
                   choices=("interval", "slit-interval", "ball",
                            "slit-ball"))
    p.add_argument("--xa", type=finite, default=0.0)
    p.add_argument("--xb", type=finite, default=1.0)
    p.add_argument("--radius", type=finite, default=1.0)
    p.add_argument("--mode", choices=(emod.MODE_MC, emod.MODE_DET),
                   default=emod.MODE_MC)
    _add_samples(p)
    _add_common(p)
    p.set_defaults(func=_cmd_energy)

    p = subs.add_parser("generator", help="symmetrized difference operator "
                                          "along a family grid (p = 2)")
    _add_kernel_flags(p)
    _add_field_flags(p, ("linear", "gaussian", "bump"), "gaussian")
    p.add_argument("--point", default=None, type=coordinates,
                   help="comma separated coordinates (default origin)")
    _add_common(p)
    p.set_defaults(func=_cmd_generator)

    p = subs.add_parser("sweep", help="run one built-in case by id")
    p.add_argument("--case", required=True)
    _add_samples(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("suite", help="run the full verification suite")
    _add_samples(p)
    _add_common(p)
    p.set_defaults(func=_cmd_suite)

    p = subs.add_parser("counterexample", help="run the slit-domain "
                                               "counterexample cases")
    _add_samples(p)
    _add_common(p)
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        _check_threads()
        with _open_output(args.output) as args.out:
            return args.func(args)
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_ERROR
    except (ArithmeticError, emod.EnergyError, kmod.KernelError,
            fmod.FieldError, gmod.DomainError) as exc:
        sys.stderr.write("numerical failure: %s\n" % exc)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
