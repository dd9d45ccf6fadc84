"""Reference check behind ``failed``: every op's outputs against the outputs
this benchmark recorded in ``reference.json``.

Gates, as the roadmap pins them:

* deterministic values (suite rows, operators, the sphere constant):
  ``|value - ref| <= 1e-10 * max(1, |ref|)``;
* kernel calculus (kernel-check rows): ``1e-10`` relative;
* Monte Carlo values: within 4 combined standard errors,
  ``4 * sqrt(stderr**2 + ref_stderr**2)``.

Suite verdicts are checked by ``record_reference.py``, which runs the full
sweeps; a row within these gates leaves its verdict unchanged unless the
value sits within 1e-10 of a verdict threshold.
"""

from __future__ import annotations

import json
import math
import os

DET_TOL = 1e-10
CALCULUS_REL = 1e-10
MC_SIGMAS = 4.0

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")


def load(path=PATH):
    with open(path) as fh:
        return json.load(fh)


def _tolerance(kind, ref, ref_se, se):
    if kind == "mc":
        return MC_SIGMAS * math.hypot(se, ref_se)
    if kind == "calculus":
        return CALCULUS_REL * abs(ref) + 1e-300
    return DET_TOL * max(1.0, abs(ref))


def misses(op, out, ref):
    """Return one message per output of ``op`` outside its gate."""
    if ref is None:
        return ["%s: no reference output recorded" % op.key]
    where = op.key
    if op.case is not None:
        where = "case %s eps %r" % (op.case, op.meta.get("eps"))
    found = []
    for name, want in ref.items():
        if name == "stderr":
            continue
        got = out.get(name)
        if got is None:
            found.append("%s: output %s missing" % (where, name))
            continue
        tol = _tolerance(op.kind, want, ref.get("stderr", 0.0),
                         out.get("stderr", 0.0))
        if not (math.isfinite(got) and abs(got - want) <= tol):
            found.append("%s: %s = %r, reference %r, tolerance %.3g"
                         % (where, name, got, want, tol))
    return found
