#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|small] [--plant far|deleted]

The driver and the libraries it links are compiled into .bench_build/ at
the root of the checkout (CMake, Release); later runs only re-link what
changed. Build output goes to stderr, so the last line of standard output
is the driver's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qvt_perfbench")


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "qvt_perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 1
    workdir = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([BINARY] + sys.argv[1:] + ["--workdir", workdir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
