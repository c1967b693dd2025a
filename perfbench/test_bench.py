#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Run from the repository root (builds rbvc_perfbench like run.py). Checks:

  1. the output checkers' self-test (rbvc_perfbench --selftest): a perturbed
     delta* witness, disagreeing cluster decisions, a stalled instance, a
     failed report at a correct node, a missing decision and an invalid
     decision are each counted as a failed op;
  2. exact-count determinism: with a fixed op count (--ops), the per-op
     work counts of a traced run repeat exactly across two runs of one seed
     (algo_l2, algo_linf: Wolfe evals, LP pivots, dual pivots, delta*
     calls; sweep_async: sim deliveries), the sweep's counts are the same at
     1 job and at nproc jobs, and another seed changes them;
  3. every run's JSON line carries every metric BENCHMARK.json names, and
     each traced run's exclusive times plus residual add up to its op time.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]

ALGO_COUNTS = ["opt.wolfe_evals_per_op", "lp.pivots_per_op",
               "lp.dual_pivots_per_op", "hull.delta_star_calls_per_op"]
SWEEP_COUNTS = ["sim.deliveries_per_op"]

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def run(workload, seed, trace, ops=None, jobs=None, seconds=1):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
    if trace:
        check_exclusive_sum(workload, out)
    return json.loads(out.strip().splitlines()[-1])


def check_exclusive_sum(workload, log):
    op = re.search(r"^# exclusive time per op \(.* = ([0-9.e+-]+) us\)$", log, re.M)
    total = re.search(r"^#   sum\s+([0-9.e+-]+)$", log, re.M)
    ok = bool(op and total) and abs(float(op.group(1)) - float(total.group(1))) <= \
        1e-6 * max(1.0, abs(float(op.group(1))))
    check(ok, workload + ": exclusive times plus residual add up to the op time")


def counts(result, names):
    return tuple(result["metrics"][n]["value"] for n in names)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}

    selftest = subprocess.run(RUN + ["--selftest"])
    check(selftest.returncode == 0, "checker self-test")

    for workload, ops in (("algo_l2", 4), ("algo_linf", 6)):
        a = run(workload, 3, 1, ops=ops)
        b = run(workload, 3, 1, ops=ops)
        c = run(workload, 4, 1, ops=ops)
        check(set(a["metrics"]) == layer, workload + ": traced run reports every per-layer metric")
        check(counts(a, ALGO_COUNTS) == counts(b, ALGO_COUNTS),
              "%s: per-op counts repeat exactly for one seed %s" % (
                  workload, counts(a, ALGO_COUNTS)))
        check(counts(a, ALGO_COUNTS) != counts(c, ALGO_COUNTS),
              "%s: another seed changes the counts %s" % (
                  workload, counts(c, ALGO_COUNTS)))
        check(a["failed"] == 0 and a["correct"], workload + ": no failed ops")

    nproc = os.cpu_count() or 1
    one = run("sweep_async", 3, 1, ops=64, jobs=1)
    many = run("sweep_async", 3, 1, ops=64, jobs=nproc)
    again = run("sweep_async", 3, 1, ops=64, jobs=nproc)
    other = run("sweep_async", 4, 1, ops=64, jobs=nproc)
    check(counts(one, SWEEP_COUNTS) == counts(many, SWEEP_COUNTS) ==
          counts(again, SWEEP_COUNTS),
          "sweep_async: deliveries per op equal at 1 and %d jobs %s" % (
              nproc, counts(one, SWEEP_COUNTS)))
    check(counts(one, SWEEP_COUNTS) != counts(other, SWEEP_COUNTS),
          "sweep_async: another seed changes the counts %s" % (
              counts(other, SWEEP_COUNTS),))

    traced = run("cluster_tcp", 3, 1, seconds=2)
    check(set(traced["metrics"]) == layer,
          "cluster_tcp: traced run reports every per-layer metric")
    for workload in ("cluster_tcp", "sweep_async"):
        r = run(workload, 3, 0, seconds=1)
        check(set(r["metrics"]) == e2e,
              workload + ": untraced run reports every end-to-end metric")
        check(r["failed"] == 0 and r["attempted"] > 0,
              workload + ": every checked op passed")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
