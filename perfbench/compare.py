#!/usr/bin/env python3
"""A/B two checkouts of the repository on one workload.

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload suite --pairs 10

Both checkouts must carry identical ``perfbench/`` files and
``BENCHMARK.json``, so the same benchmark code and settings measure both.
Each pair runs the parent and the change once on the same seed; which side
runs first alternates from pair to pair, and every pair uses a new seed.
For each end-to-end metric the report gives both sides' median and
quartiles and the pairs the change won (ties count for neither), and a
verdict:

* ``gain``: at least 10 pairs ran, the change won at least 9 of every 10
  and the medians differ by more than the parent's own quartile spread;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: neither, while the parent's quartile spread exceeds the
  bound;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def _tree_hash(root):
    paths = [os.path.join(root, "BENCHMARK.json")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(root,
                                                             "perfbench")):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in ("out", "__pycache__"))
        paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _run(root, spec, workload, seed):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        sys.exit("run failed in %s:\n%s" % (root, res.stderr[-2000:]))
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        sys.exit("outputs failed the reference check in %s" % root)
    return {k: v["value"] for k, v in out["metrics"].items()}


def _quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()
    roots = {side: os.path.abspath(getattr(args, side))
             for side in ("parent", "change")}
    if _tree_hash(roots["parent"]) != _tree_hash(roots["change"]):
        sys.exit("the two checkouts carry different benchmark files")
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(roots[side], spec, args.workload, seed))
        print("pair %d (seed %d, %s first) done" % (i + 1, seed, order[0]),
              flush=True)
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        pq, cq = _quartiles(par), _quartiles(chg)
        spread = pq[2] - pq[0]
        worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
        if len(par) >= 10 and wins >= 0.9 * len(par) and -worse > spread:
            verdict = "gain"
        elif worse > m["bound"] * pq[1]:
            verdict = "regression"
        elif spread > m["bound"] * pq[1]:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        print("%-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
              "change won %d/%d  %s" % (name, pq[1], pq[0], pq[2], cq[1],
                                        cq[0], cq[2], wins, len(par),
                                        verdict))


if __name__ == "__main__":
    main()
