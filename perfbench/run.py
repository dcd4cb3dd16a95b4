#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rollup_wire, filter_budget_wire (see
perfbench/README.md). The build directory is $CARGO_TARGET_DIR, or
.bench_build when that is unset, relative to the current directory. Build
output goes to standard error, so the last line of standard output is the
driver's JSON result. With --trace 1 the recorded spans are written to
<build dir>/trace-<workload>-<seed>.csv. Other driver flags (--rows)
pass through unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "perfbench_selftest", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench_driver")


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    driver = build(build_dir)
    if driver is None:
        return 2
    if flag(args, "--trace") == "1" and "--trace-out" not in args:
        name = "trace-%s-%s.csv" % (flag(args, "--workload"),
                                    flag(args, "--seed"))
        args += ["--trace-out", os.path.join(build_dir, name)]
    return subprocess.run([driver] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
