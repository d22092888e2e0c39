#!/usr/bin/env python3
"""Check that the emulator's simulated output matches bench/sim_golden.json.

Usage (from anywhere; takes no options):

    python3 bench/check_sim_golden.py

For every workload in BENCHMARK.json and every seed in SEEDS, runs

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0

and compares the run's fingerprint (the stderr line "... fingerprint
<hex>") and its simulated metrics (sim_kiops, sim_p99_us, write_amp from
the stdout JSON) with the golden record, exactly. Host-time metrics are
not compared: they depend on the machine. Each run also passes through
perfbench's own correctness gate (identical fingerprints across units,
zero failed ops, fsck after every remount).

Prints the measured record as JSON in the golden file's format. Exits
non-zero if any run fails or any value differs. A change that alters
simulated output on purpose replaces bench/sim_golden.json with the
printed record and says why.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "bench", "sim_golden.json")
SEEDS = (1, 1001)
SIM_METRICS = ("sim_kiops", "sim_p99_us", "write_amp")
FINGERPRINT = re.compile(r"fingerprint ([0-9a-f]+)\s*$", re.MULTILINE)


def measure(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    fingerprints = FINGERPRINT.findall(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or len(fingerprints) != 1:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: run failed "
                           f"(exit {proc.returncode}, {len(fingerprints)} fingerprint lines)")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: perfbench reports an incorrect run")
    record = {"workload": workload, "seed": seed, "fingerprint": fingerprints[0]}
    for name in SIM_METRICS:
        record[name] = result["metrics"][name]["value"]
    return record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    try:
        with open(GOLDEN) as f:
            golden = {(r["workload"], r["seed"]): r for r in json.load(f)["runs"]}
    except FileNotFoundError:
        golden = {}

    measured, errors = [], []
    for workload in workloads:
        for seed in SEEDS:
            try:
                record = measure(workload, seed)
            except RuntimeError as e:
                errors.append(str(e))
                continue
            measured.append(record)
            expected = golden.get((workload, seed))
            if expected is None:
                errors.append(f"{workload} seed {seed}: no golden record")
                continue
            for key, value in record.items():
                if expected.get(key) != value:
                    errors.append(f"{workload} seed {seed}: {key} is {value!r}, "
                                  f"golden {expected.get(key)!r}")

    print(json.dumps({"runs": measured}, indent=2))
    for e in errors:
        print(f"check_sim_golden: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"check_sim_golden: {len(measured)} runs match {os.path.relpath(GOLDEN, ROOT)}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
