#!/usr/bin/env python3
"""Quick self-test of servebench: runs every workload briefly, untraced and
traced, and checks that each run exits 0, reports correct outputs with no
failed request, and prints every metric BENCHMARK.json names.

Usage (from the repository root):
  python3 servebench/selftest.py [--seconds 1]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["vqa_sessions", "video_analytics", "control_plane"]


def run(workload, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, "exit code %d\n%s" % (done.returncode, done.stderr[-2000:])
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "last line is not JSON: %r" % lines[-1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, error = run(workload, args.seconds, trace)
            label = "%s --trace %d" % (workload, trace)
            if error:
                problems.append("%s: %s" % (label, error))
                continue
            missing = [name for name in expected[trace] if name not in result["metrics"]]
            extra = [name for name in result["metrics"] if name not in expected[trace]]
            bad = [name for name, metric in result["metrics"].items()
                   if not isinstance(metric.get("value"), (int, float)) or not metric.get("unit")]
            if missing or extra or bad:
                problems.append("%s: missing %s, unexpected %s, malformed %s"
                                % (label, missing, extra, bad))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s"
                                % (label, result["correct"], result["attempted"], result["failed"]))
            print("%-32s %s" % (label, "ok" if not problems or not problems[-1].startswith(label)
                                else "FAILED"), flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
