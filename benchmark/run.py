#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the workload runner (and libalae, from this checkout's sources) into
.bench_build/ at the checkout root, runs one workload, and relays its
report: human-readable lines on stderr, one JSON result as the last line of
stdout.

  python3 benchmark/run.py --workload long_dna --seed 1 --seconds 20 --trace 0
  python3 benchmark/run.py --self-test    # the benchmark's own unit tests

Exit status: the runner's (0 ok, 1 wrong answer, 2 bad arguments or failed
set-up), or 1 when the build fails, the run times out, or the result line
is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target):
    """Configures once, then brings `target` up to date; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", target])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("benchmark build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs `cmd` with a timeout; returns (exit code, stdout text)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("ledger_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "ledger_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("alae_benchmark"):
        return 1
    code, out = run([os.path.join(BUILD, "alae_benchmark"),
                     "--workload", args.workload, "--seed", args.seed,
                     "--seconds", args.seconds, "--trace", args.trace])
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines or not valid_result(lines[-1]):
        print(f"benchmark runner failed (exit {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
