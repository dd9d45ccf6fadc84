#!/usr/bin/env python3
"""Record the current code's outputs as the benchmark reference.

    python3 perfbench/record_reference.py        # about three minutes

Runs the built-in suite at seed 42 down the path of ``plevylab suite``
(``builtin_suite``, ``run_sweep`` per case, ``suite_json``) and requires
every verdict to equal its expected verdict.  Then runs every op of the
three workloads once at seed 42, requires each suite row to equal the
sweep's row at the same grid point bit for bit, and writes
``reference.json`` next to this file.  Re-record only on purpose: a change
that moves an output is judged against this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 42


def main():
    pkg = run._import_package()
    import refcheck
    import workloads
    smod = pkg.sweep

    os.environ["PLEVYLAB_THREADS"] = "1"
    cases = smod.builtin_suite(seed=SEED)
    reports = [smod.run_sweep(c) for c in cases]
    payload = smod.suite_json(cases, reports, SEED)
    suite = {}
    for case, rep in zip(cases, reports):
        if rep.verdict != rep.expected:
            sys.exit("case %s: verdict %s, expected %s"
                     % (case.case_id, rep.verdict, rep.expected))
        suite[case.case_id] = {
            "verdict": rep.verdict, "expected": rep.expected,
            "rows": [[r.eps, r.value, r.stderr] for r in rep.rows]}

    ops_out = {}
    for name in workloads.WORKLOADS:
        os.environ["PLEVYLAB_THREADS"] = str(workloads.THREADS[name])
        ops_out[name] = {}
        for op in workloads.build(name, SEED):
            out = op.run()
            if op.case is not None:
                row = [r for r in suite[op.case]["rows"]
                       if r[0] == op.meta["eps"]]
                if row != [[op.meta["eps"], out["value"],
                            out.get("stderr", 0.0)]]:
                    sys.exit("suite op %s does not reproduce the sweep row "
                             "%r: got %r" % (op.key, row, out))
            ops_out[name][op.key] = out

    reference = {
        "recorded_with": run._stamp(
            argparse.Namespace(workload="all", seed=SEED, seconds=0,
                               trace=0, size="full"),
            "per workload", os.getloadavg()[0]),
        "gates": {"deterministic": refcheck.DET_TOL,
                  "calculus_rel": refcheck.CALCULUS_REL,
                  "mc_sigmas": refcheck.MC_SIGMAS},
        "suite": {"seed": SEED,
                  "suite_json_sha256": hashlib.sha256(
                      payload.encode()).hexdigest(),
                  "cases": suite},
        "ops": ops_out,
    }
    with open(refcheck.PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %d suite cases, %s ops"
          % (refcheck.PATH, len(suite),
             {k: len(v) for k, v in ops_out.items()}))


if __name__ == "__main__":
    main()
