#!/usr/bin/env python3
"""Build and run the ConZone emulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the emulator sources it compiles) in Release mode
under .bench_build/, refuses to record numbers from any other build type,
runs one workload for --seconds, and prints as the last line of stdout one
JSON object: {"correct", "attempted", "failed", "metrics"}, where each
metric is {"value", "unit"}. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Build output and the
benchmark's own notes go to stderr. Exits non-zero on any failure.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "conzone_perfbench")
BUILD_JOBS = "2"
RUN_LIMIT_S = 170  # the whole command must end within 180 s


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def cached_build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    steps = [
        ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    # Provenance: read the build type back out of the cache, as
    # bench/run_bench.sh does, rather than trusting the flag we passed.
    build_type = cached_build_type()
    if build_type != "Release":
        fail(f"refusing to record numbers: CMAKE_BUILD_TYPE='{build_type}' (need Release)")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    start = time.monotonic()
    build()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    budget = max(RUN_LIMIT_S - (time.monotonic() - start), 1)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {budget:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed no result (exit code {proc.returncode})")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("benchmark's last line is not JSON: " + lines[-1])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if raw["correct"] and set(raw["metrics"]) != set(units):
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(raw['metrics']) ^ set(units))}")
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in raw["metrics"].items()},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
