#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src from source) in Release mode under
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild
incrementally. The benchmark binary runs with every LHR_* variable removed
from its environment and writes scratch files to .bench_out/. Its output is
passed through once the last line has been checked: one JSON object whose
metric names are exactly the end_to_end (--trace 0) or per_layer (--trace 1)
names of BENCHMARK.json. Any build, run or format failure exits non-zero
without printing a result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", source, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if done.returncode != 0:
                fail(f"build step failed ({' '.join(cmd[:2])}), exit {done.returncode}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "CMakeLists.txt")):
        fail("run from the root of a checkout (perfbench/ not found)")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(root, os.path.abspath(build_dir))

    env = {k: v for k, v in os.environ.items() if not k.startswith("LHR_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    if done.returncode != 0:
        fail(f"benchmark exited {done.returncode}", 1)

    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result line", 1)
    want = expected_metrics(root, args.trace == "1")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics disagree with BENCHMARK.json (missing {missing}, extra {extra}, "
             "or a unit differs)", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
