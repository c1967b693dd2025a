#!/usr/bin/env python3
"""Builds the rbvc benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library (../src) and the benchmark
(perfbench/src) are compiled with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only re-check the build. Build
output goes to stderr; stdout carries the binary's report, whose last line
is the JSON result. Exits non-zero, printing no result, when the build or
the run fails. Extra flags (--ops, --jobs, --selftest) pass through to
rbvc_perfbench.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds rbvc_perfbench; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "build.ninja")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", out, "--target", "rbvc_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "rbvc_perfbench")


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        # Keep the log for diagnosis but never leave a result line behind.
        sys.stderr.write(out)
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
