#!/usr/bin/env python3
"""Builds onexbench from this checkout's sources and runs it.

    python3 onexbench/run.py --workload explore-long --seed 1 --seconds 20 --trace 0
    python3 onexbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR or
.bench_build, run-time files to .bench_run; build output goes to stderr,
so the last stdout line is the benchmark's JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        print("onexbench: no ONEX sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "onexbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", "4", "--target", "onexbench"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("onexbench: build failed", file=sys.stderr)
            return 2
    work = os.path.join(ROOT, ".bench_run")
    os.makedirs(work, exist_ok=True)
    args = [os.path.join(build, "onexbench")] + sys.argv[1:]
    if "--self-test" not in sys.argv:
        args += ["--work-dir", work]
    return subprocess.call(args)


if __name__ == "__main__":
    sys.exit(main())
