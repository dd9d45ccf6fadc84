#!/usr/bin/env python3
"""plevylab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The package is imported from ``src/`` next
to this directory and nowhere else.  A run repeats passes over the
workload's ops for about ``--seconds`` seconds (at least one pass) and
prints, as its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  End-to-end times
are scaled to the reference speed of a calibration loop timed around every
op (``calib.py``), so that the host's drifting speed cancels out.  The full
result, with the environment stamp and per-op latencies, goes to
``perfbench/out/``; traced runs also write their spans there as JSON lines.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from time import perf_counter

import calib
import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5

E2E_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if ".mc_samples_per_s." in name:
        return "1/s"
    if name.endswith("us_per_panel"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if any(part == "s" or part.endswith("_s") for part in name.split(".")):
        return "s"
    return "count"


def _fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def _import_package():
    """Import plevylab from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import plevylab
    except ImportError as exc:
        _fail("cannot import plevylab from %s: %s" % (SRC, exc))
    if not os.path.abspath(plevylab.__file__).startswith(SRC + os.sep):
        _fail("plevylab was imported from %s, not from %s"
              % (plevylab.__file__, SRC))
    return plevylab


def _source_hash(*dirs):
    """SHA-256 over the .py files of ``dirs`` (default: the package)."""
    h = hashlib.sha256()
    for d in dirs or (os.path.join(SRC, "plevylab"),):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return res.stdout.strip() or "unknown"


def _stamp(args, threads, load1):
    import platform
    import workloads
    return {"commit": _commit(), "source_sha256": _source_hash(),
            "python": platform.python_version(),
            **workloads.package_versions(), "nproc": os.cpu_count(),
            "PLEVYLAB_THREADS": threads, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "loadavg_1m": load1}


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, each timed from spawn to first op ready


def _probe(args):
    """Child side: import, build the workload's inputs, report the time."""
    _import_package()
    import workloads
    workloads.build(args.workload, args.seed, args.size)
    print(repr(time.monotonic()), flush=True)


def _setup_times(args, env):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        res = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=170, cwd=ROOT)
        if res.returncode != 0:
            _fail("set-up probe failed:\n%s" % res.stderr)
        times.append(float(res.stdout.strip().splitlines()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self):
        self.wall = 0.0        # seconds in the ops, calibration excluded
        self.elapsed = 0.0     # seconds of the whole pass
        self.latency = {}      # op key -> seconds
        self.scaled = {}       # op key -> seconds at calib's reference speed
        self.chunks = []       # calibration loop times measured in the pass
        self.misses = []       # one message per failed output or raised op
        self.failed = set()    # keys of the ops that failed
        self.layers = None     # per-layer metrics of a traced pass


def run_pass(ops, reference, tracer=None, case_ids=(), calibrate=False):
    """One pass over ``ops``; with ``calibrate``, scale each op's time by
    the calibration loop timed just before and just after it."""
    p = Pass()
    outputs = {}
    per_op = {}
    before = tracer.totals() if tracer else None
    t_pass = perf_counter()
    if calibrate:
        p.chunks.append(calib.block(calib.MIN_BLOCK_S))
    for op in ops:
        snap = tracer.totals() if tracer and op.kind == "mc" else None
        t0 = perf_counter()
        try:
            out = tracer.run_op(op.key, op.run) if tracer else op.run()
        except Exception as exc:  # an op that raises is a failed op
            out = None
            p.misses.append("%s raised %s: %s"
                            % (op.key, type(exc).__name__, exc))
        p.latency[op.key] = perf_counter() - t0
        outputs[op.key] = out
        if snap is not None:
            per_op[op.key] = (snap, tracer.totals())
        if calibrate:
            p.chunks.append(calib.block_after(p.latency[op.key]))
            p.scaled[op.key] = calib.scale(p.latency[op.key], *p.chunks[-2:])
    p.elapsed = perf_counter() - t_pass
    p.wall = sum(p.latency.values())
    for op in ops:
        out = outputs[op.key]
        if out is None:
            p.failed.add(op.key)
            continue
        found = refcheck.misses(op, out, reference.get(op.key))
        if found:
            p.misses += found
            p.failed.add(op.key)
    if tracer:
        from tracer import layer_metrics
        p.layers = layer_metrics(before, tracer.totals())
        _benchmark_side_layers(p, ops, per_op, case_ids)
    return p


def _benchmark_side_layers(p, ops, per_op, case_ids):
    """Per-layer metrics that the benchmark measures around its own ops."""
    m = p.layers
    by_dim = {1: [0, 0.0], 2: [0, 0.0], 3: [0, 0.0]}
    accepted = proposed = 0.0
    for op in ops:
        if op.kind != "mc":
            continue
        by_dim[op.dim][0] += op.samples
        by_dim[op.dim][1] += p.latency[op.key]
        snap0, snap1 = per_op[op.key]
        pts = snap1.get("geometry.contains.items", 0.0) \
            - snap0.get("geometry.contains.items", 0.0)
        inside = snap1.get("geometry.inside", 0.0) \
            - snap0.get("geometry.inside", 0.0)
        proposed += pts
        accepted += inside if op.accept == "inside" else pts - inside
    m["functionals.mc_pair_accept_ratio"] = accepted / proposed \
        if proposed else 0.0
    for d, (n, s) in by_dim.items():
        m["functionals.mc_samples_per_s.d%d" % d] = n / s if s else 0.0
    for case in case_ids:
        m["sweep.case_s." + case] = sum(
            p.latency[op.key] for op in ops if op.case == case)
    m["sweep.rows"] = sum(1 for op in ops if op.case is not None)


def _keep_going(t_start, seconds, last_elapsed):
    # start another pass if it should end within half a pass of the limit
    return perf_counter() - t_start + last_elapsed / 2 <= seconds


# ---------------------------------------------------------------------------
# exact counters across traced runs


def _check_exact(passes, args):
    from tracer import EXACT_COUNTERS
    problems = []
    first = {k: passes[0].layers[k] for k in EXACT_COUNTERS}
    for i, p in enumerate(passes[1:], 2):
        for k in EXACT_COUNTERS:
            if p.layers[k] != first[k]:
                problems.append("traced pass %d: %s = %r, pass 1 gave %r"
                                % (i, k, p.layers[k], first[k]))
    os.makedirs(OUT, exist_ok=True)
    # the same package and benchmark code must count the same work
    code = _source_hash(os.path.join(SRC, "plevylab"), HERE)
    path = os.path.join(OUT, "counters-%s-%s-s%d-%s.json"
                        % (args.workload, args.size, args.seed, code[:16]))
    if os.path.exists(path):
        with open(path) as fh:
            prev = json.load(fh)
        for k in EXACT_COUNTERS:
            if prev.get(k) != first[k]:
                problems.append("%s = %r, an earlier traced run of this "
                                "source gave %r (%s)"
                                % (k, first[k], prev.get(k), path))
    else:
        with open(path, "w") as fh:
            json.dump(first, fh, indent=1, sort_keys=True)
    return problems


# ---------------------------------------------------------------------------
# metrics


def _end_to_end(passes, setup):
    return {
        "pass_s": median([sum(p.scaled.values()) for p in passes]),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _op_latency(p):
    # a few seconds of samples per op are too noisy on a shared machine to
    # bound as end-to-end metrics; the traced run reports them unbounded
    lat = list(p.latency.values())
    return {"op.p50_s": median(lat), "op.max_s": max(lat)}


def _per_layer(untraced, traced, tracer, args):
    from tracer import write_spans
    values = {k: median([p.layers[k] for p in traced])
              for k in traced[0].layers}
    traced_wall = median([p.wall for p in traced])
    values.update(_op_latency(untraced))
    values["trace.untraced_wall_s"] = untraced.wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced.wall
    spans = tracer.take_spans()
    values["trace.spans"] = len(spans) / len(traced)
    os.makedirs(OUT, exist_ok=True)
    write_spans(os.path.join(OUT, "spans-%s-%s-s%d.jsonl"
                             % (args.workload, args.size, args.seed)), spans)
    return values


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("suite", "mc", "kernels"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at reduced size, traced and "
                         "untraced, and check the reported metrics")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main(HERE)
    if args.workload is None:
        ap.error("--workload is required")
    load1 = os.getloadavg()[0]
    if args.setup_probe:
        _probe(args)
        return 0

    pkg = _import_package()
    import workloads
    threads = workloads.THREADS[args.workload]
    os.environ["PLEVYLAB_THREADS"] = str(threads)
    stamp = _stamp(args, threads, load1)

    setup = None
    if not args.trace:
        setup = _setup_times(args, dict(os.environ))
    ops = workloads.build(args.workload, args.seed, args.size)
    case_ids = [c.case_id for c in pkg.sweep.builtin_suite(args.seed)]
    reference = refcheck.load()["ops"][args.workload]

    t_start = perf_counter()
    passes = [run_pass(ops, reference, calibrate=not args.trace)]
    traced = []
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(pkg)
        try:
            while True:
                traced.append(run_pass(ops, reference, tracer, case_ids))
                if not _keep_going(t_start, args.seconds,
                                   traced[-1].elapsed):
                    break
        finally:
            tracer.uninstall()
    else:
        while _keep_going(t_start, args.seconds, passes[-1].elapsed):
            passes.append(run_pass(ops, reference, calibrate=True))

    everything = passes + traced
    # a miss repeats in every pass; report each once
    problems = list(dict.fromkeys(m for p in everything for m in p.misses))
    if args.trace:
        problems += _check_exact(traced, args)
        values = _per_layer(passes[0], traced, tracer, args)
        metrics = {k: {"value": float(v), "unit": layer_unit(k)}
                   for k, v in sorted(values.items())}
    else:
        values = _end_to_end(passes, setup)
        metrics = {k: {"value": float(v), "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    for msg in problems:
        sys.stderr.write("FAILED %s\n" % msg)
    result = {"correct": not problems,
              "attempted": len(ops) * len(everything),
              "failed": sum(len(p.failed) for p in everything),
              "metrics": metrics}
    detail = {"stamp": stamp, "result": result, "problems": problems,
              "setup_s": setup, "op_order": [op.key for op in ops],
              "passes": [{"traced": p in traced, "wall_s": p.wall,
                          "latency_s": p.latency, "scaled_s": p.scaled,
                          "chunk_s": p.chunks}
                         for p in everything]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result-%s-%s-s%d-t%d.json"
                           % (args.workload, args.size, args.seed,
                              args.trace)), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
