#!/usr/bin/env python3
"""Tiny-size self-test of the Millipage benchmark.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that each run passes its own correctness checks, that the untraced
run prints every end-to-end metric and the traced run every per-layer
metric, each with the unit BENCHMARK.json gives it, and that an unknown
workload is refused. Run from the repository root:

    python3 perfbench/tests/selftest.py

Exit status 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or not result or not result["correct"] or result["failed"] != 0:
                errors.append("%s: exit %d, result %r" % (where, code, result))
                continue
            if result["attempted"] < 1:
                errors.append("%s: attempted %r" % (where, result["attempted"]))
            metrics = result["metrics"]
            for m in spec[section]:
                got = metrics.get(m["name"])
                if got is None:
                    errors.append("%s: missing %s" % (where, m["name"]))
                elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    errors.append("%s: %s is %r, want unit %s" % (where, m["name"], got,
                                                                  m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[section]}
            if extra:
                errors.append("%s: unlisted metrics %s" % (where, sorted(extra)))
            print("ok   %s (%d metrics)" % (where, len(metrics)))
    bad = subprocess.run([sys.executable, RUN, "--workload", "nope", "--seed", "1",
                          "--seconds", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         cwd=ROOT)
    if bad.returncode == 0:
        errors.append("an unknown workload was accepted")
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
