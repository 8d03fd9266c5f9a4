#!/usr/bin/env python3
"""Builds and runs the WA-RAN slot benchmark (perfbench/slot_bench.cpp).

    python3 perfbench/run.py --workload <ue96|thin6|swap> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and compiles the
benchmark together with the WA-RAN libraries from ../src (about two
minutes on four cores) into $CARGO_TARGET_DIR, default .bench_build; later
runs rebuild only what changed. Build output goes to stderr. The benchmark's
stdout is passed through; its last line is the JSON result, and the exit
code is the benchmark's (nonzero when a correctness check fails).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "slot_bench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    out = build_dir()
    build(out)
    cmd = [os.path.join(out, "slot_bench")] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: slot_bench did not finish in %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
