"""Smoke self-test: every workload at reduced size, untraced and traced.

    python3 perfbench/run.py --self-test          # about a minute

Each workload runs once with ``--trace 0`` and twice with ``--trace 1``,
each in its own process.  The test checks that every run exits 0, that its
last line carries exactly the keys a caller reads, that the metrics are
exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced) metrics of
``BENCHMARK.json`` with the units named there, that no op failed, and that
the second traced run reproduced the first one's exact counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SEED = 7
KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(here, workload, trace):
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "smoke"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         cwd=os.path.dirname(here))
    if res.returncode != 0:
        return None, ["exit %d: %s" % (res.returncode, res.stderr[-2000:])]
    return json.loads(res.stdout.strip().splitlines()[-1]), []


def _check(result, spec):
    errs = []
    if set(result) != KEYS:
        errs.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errs.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0:
        errs.append("failed = %r" % result.get("failed"))
    if not result.get("attempted", 0) >= 1:
        errs.append("attempted = %r" % result.get("attempted"))
    want = {m["name"]: m["unit"] for m in spec}
    got = result.get("metrics", {})
    for name in sorted(set(want) - set(got)):
        errs.append("metric %s missing" % name)
    for name in sorted(set(got) - set(want)):
        errs.append("metric %s not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name]:
            errs.append("metric %s unit %r, BENCHMARK.json says %r"
                        % (name, got[name].get("unit"), want[name]))
        if not isinstance(got[name].get("value"), float):
            errs.append("metric %s value %r" % (name, got[name].get("value")))
    return errs


def main(here):
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = 0
    for w in bench["workloads"]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"]),
                            (1, bench["per_layer"])):
            result, errs = _run(here, w["name"], trace)
            if result is not None:
                errs = _check(result, spec)
            failures += bool(errs)
            print("%-4s %-8s trace=%d %s" % ("ok" if not errs else "FAIL",
                                             w["name"], trace,
                                             "; ".join(errs)), flush=True)
    print("self-test %s" % ("passed" if not failures else
                            "FAILED (%d runs)" % failures))
    return 1 if failures else 0
