#!/usr/bin/env python3
"""Builds servebench from the checkout's sources and runs one workload.

Usage (from the repository root):
  python3 servebench/run.py --workload vqa_sessions --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/servebench under the repository root and is
incremental, so only the first run compiles. Build output goes to stderr; the
benchmark's last line of stdout is its JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "vlora_executor", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "bin", "servebench")
    done = subprocess.run([binary, "--out-dir", BUILD] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
