#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload serve_paper --seed 7 --seconds 30 --trace 0

The first run configures and builds the library and the benchmark into
.bench_build/e2ebench (build output goes to stderr).

The measurement runs in one benchmark process for the whole of --seconds, so every
figure is taken over the whole run: the host's speed changes from one second to the
next, and a figure taken over a few seconds lands in whichever spell it met.

The last line of stdout is the result object; the exit code is 0 only when every output
was checked correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("train_pipeline", "serve_paper", "serve_churn")


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    if not all(os.path.isfile(os.path.join(ROOT, *p))
               for p in (("CMakeLists.txt",), ("src", "CMakeLists.txt"))):
        print("e2ebench: no repository sources next to the benchmark", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "e2ebench")


def run(binary, args):
    """Runs the benchmark process; returns its result object, or None."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(".bench_build", "e2ebench-work")]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        print("e2ebench: the benchmark exited %d without a result" % proc.returncode,
              file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    result = run(binary, args)
    if result is None:
        return 3
    for name, m in result["metrics"].items():
        print("%-32s %20.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
