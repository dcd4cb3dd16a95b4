#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

1. Builds the driver (through run.py) and runs perfbench_selftest, which
   checks that a decoded answer perturbed inside the test fails the answer
   check.
2. Runs every workload of BENCHMARK.json briefly on a small table, with
   tracing off and on, and checks that each run is correct and prints every
   metric BENCHMARK.json names for that mode, with its unit, both as a
   "metric <name> <value> <unit>" line and in the final JSON line.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_workload(name, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--rows", "60000"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_run(spec, name, trace):
    errors = []
    rc, out, err = run_workload(name, trace)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        return ["%s trace=%d: exit %d\n%s" % (name, trace, rc, err[-2000:])]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (name, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        errors.append("%s trace=%d: not correct (%d failed)" %
                      (name, trace, result["failed"]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    names = {m["name"] for m in wanted}
    if set(result["metrics"]) != names:
        errors.append("%s trace=%d: JSON metrics differ from BENCHMARK.json: "
                      "%s" % (name, trace,
                              sorted(set(result["metrics"]) ^ names)))
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append("%s: JSON metric %s unit %s" % (name, m["name"], got))
        if printed.get(m["name"]) != m["unit"]:
            errors.append("%s: printed metric %s unit %s" %
                          (name, m["name"], printed.get(m["name"])))
    if not trace:
        for m in wanted:
            value = result["metrics"].get(m["name"], {}).get("value", 0)
            if value == 0:
                errors.append("%s: end-to-end metric %s is 0" %
                              (name, m["name"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    # The first run.py call builds; run the answer-check test after it.
    names = [w["name"] for w in spec["workloads"]]
    for i, name in enumerate(names):
        for trace in (0, 1):
            errors += check_run(spec, name, trace)
            print("%-20s trace=%d %s" % (name, trace,
                                        "ok" if not errors else "FAILED"))
        if i == 0:
            build_dir = os.path.abspath(os.path.join(
                ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
            proc = subprocess.run([os.path.join(build_dir,
                                                "perfbench_selftest")])
            if proc.returncode != 0:
                errors.append("perfbench_selftest failed")
    for e in errors:
        print("FAIL: " + e)
    print("perfbench selftest " + ("passed" if not errors else "FAILED"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
