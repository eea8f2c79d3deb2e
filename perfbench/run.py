#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the simulator and the
moon_perf driver from source into $CARGO_TARGET_DIR (default .bench_build,
relative to the checkout root; an up-to-date build is a no-op), runs one
workload in a fresh process, and prints the driver's result object as the
last line of stdout. Build output and diagnostics go to stderr.

Exits non-zero without printing a result when the sources are missing, the
build fails, the driver fails a correctness gate, or the result is
malformed.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("sort_maxmin", "job_stream", "chaos_failover")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def declared_metrics(root, section):
    """{name: unit} of one metric section of BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"] for m in spec[section]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fail("cannot read %s from BENCHMARK.json: %s" % (section, exc))


def build(root, build_dir):
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no simulator sources (src/) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail("build step %s failed: %s" % (cmd[:2], exc))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(build_dir, "moon_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20100621)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail("driver failed: %s" % exc)
    if done.returncode != 0:
        fail("driver exited %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        fail("driver result is not JSON: %s" % exc)
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or result["correct"] is not True or result["attempted"] < 1
            or result["failed"] != 0):
        fail("driver result is malformed or incorrect: %s" % lines[-1])
    expected = declared_metrics(root, "per_layer" if args.trace else
                                "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("driver metrics do not match BENCHMARK.json: missing %s, extra "
             "or mis-united %s" % (sorted(set(expected) - set(got)),
                                   sorted(set(got.items()) -
                                          set(expected.items()))))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
