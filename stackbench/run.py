#!/usr/bin/env python3
"""Build the tuning-stack benchmark from source and run one workload.

Usage:
    python3 stackbench/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1]

NAME is cold-build, serve-serial, serve-unique, serve-repeat, or all
(the four in turn). Configures stackbench/ (which builds the DAC libraries from
src/) as a Release build under .bench_build/stackbench, builds it, runs
the benchmark's helper tests, then runs the workload and passes its
output through: the last line of standard output is the run's JSON
result. Build and test output goes to standard error, and only when a
step fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stackbench")
WORKLOADS = ["cold-build", "serve-serial", "serve-unique", "serve-repeat"]


def step(command):
    """Run a build or test step; on failure show its output and exit."""
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        sys.stderr.write("stackbench: step failed: %s\n" % " ".join(command))
        sys.exit(1)


def option(args, name):
    """Value of --name in either '--name value' or '--name=value' form."""
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def drop_option(args, name):
    """args without --name and its value."""
    out = []
    skip = False
    for arg in args:
        if skip:
            skip = False
        elif arg == name:
            skip = True
        elif not arg.startswith(name + "="):
            out.append(arg)
    return out


def main():
    args = sys.argv[1:]
    jobs = str(max(1, os.cpu_count() or 1))
    step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", jobs])
    step([os.path.join(BUILD, "stackbench_tests"), "--gtest_brief=1"])

    runs = [args]
    if option(args, "--workload") == "all":
        rest = drop_option(args, "--workload")
        runs = [["--workload", name] + rest for name in WORKLOADS]
    status = 0
    for run_args in runs:
        command = [os.path.join(BUILD, "stackbench")] + run_args
        sys.stdout.flush()
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
