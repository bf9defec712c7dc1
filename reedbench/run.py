#!/usr/bin/env python3
"""Builds and runs the REED end-to-end benchmark.

    python3 reedbench/run.py --workload first-backup --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (the REED library from src/ plus reedbench/*.cc) under
.bench_build/reedbench; later runs only re-check the build. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result. Exits
nonzero, without a result, when the build fails or the run times out.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "reedbench")
RUN_TIMEOUT_S = 170


def build():
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "reedbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not build():
        print("reedbench: build failed", file=sys.stderr)
        return 3

    work_dir = os.path.join(BUILD, "data-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "reedbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--out-dir", os.path.join(BUILD, "out")]
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("reedbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
