#!/usr/bin/env python3
"""Build the silc compile benchmark from source and run one workload.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload batch_crew --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another, each in its own
process, and exits non-zero if any of them does.

The benchmark binary is built (incrementally) under .bench_build/ at the
repository root; build output goes to stderr. The binary's output is passed
through unchanged: human-readable lines first, the JSON result as the last
line of stdout. The exit code is the binary's: 0 when every op passed its
correctness check, non-zero otherwise. Without the repository's sources
next to this directory the build fails and the script exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("batch_crew", "edit_loop", "warm_restart")
RUN_TIMEOUT_S = 170  # one run measures --seconds plus set-up; never hang


def build(root):
    """Configure (once) and build the benchmark; return the binary or None."""
    source_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "silc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "silc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".bench_build", "perfbench-out")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
        sys.stdout.flush()
        worst = max(worst, run_one(cmd, root))
    return worst


def run_one(cmd, root):
    """Run one workload process to completion; return its exit code."""
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
