#!/usr/bin/env python3
"""Build and run the SCOOP/Qs request-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload rpc|stream|serve|remote \
        [--seed N] [--seconds S] [--trace 0|1]

The script builds perfbench/qsbench.exe from source with dune (into
.bench_build, with the shared dune cache off so nothing is written
outside the checkout), runs it, and passes its report through.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when the benchmark ran and every output it checked was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/qsbench.exe"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "qsbench.exe")
WORKLOADS = ("rpc", "stream", "serve", "remote")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no program source here: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        fail("dune is not installed")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail(f"build failed (dune exit {r.returncode})")


def check_result(line):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (
        isinstance(res, dict)
        and set(res) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(res["attempted"], int)
        and res["attempted"] >= 1
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    out = r.stdout.rstrip("\n")
    lines = out.splitlines()
    if r.returncode != 0:
        # A wrong output still prints its report (with "correct": false);
        # any other failure prints none.
        if lines and check_result(lines[-1]):
            print(out, flush=True)
        else:
            sys.stderr.write(out + "\n")
        fail(f"{args.workload} exited with code {r.returncode}", r.returncode)
    if not lines or not check_result(lines[-1]):
        sys.stderr.write(out + "\n")
        fail("the benchmark printed no result line", 3)
    print(out, flush=True)


if __name__ == "__main__":
    main()
