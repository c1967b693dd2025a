#!/usr/bin/env python3
"""Runs the benchmark over several seeds and keeps every run's log.

    python3 perfbench/sample.py OUT_DIR [--workloads a,b] [--seeds 1-10]
                                [--trace 0|1] [--seconds S]

Run from the repository root. Each run's stdout goes to
OUT_DIR/<workload>.trace<t>.seed<n>.log; the end prints the spread table of
perfbench/compare.py (median, quartiles, and quartile spread as a share of
the median, flagged when over a third of the metric's bound). Compare two
such directories with `python3 perfbench/compare.py BASE NEW`.
"""
import argparse
import json
import os
import subprocess
import sys
import time

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE)
            path = os.path.join(args.out, "%s.trace%s.seed%d.log" % (
                workload, args.trace, seed))
            with open(path, "wb") as f:
                f.write(proc.stdout)
            print("%s seed %d: exit %d, %.1f s" % (
                workload, seed, proc.returncode, time.time() - t0),
                file=sys.stderr)
    over = compare.spreads(compare.load_dir(args.out), compare.load_spec())
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
