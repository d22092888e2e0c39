#!/usr/bin/env python3
"""Regression gate over bench_emulator_throughput JSON output.

Compares candidate rates against a baseline JSON by benchmark name and
exits non-zero if any benchmark regressed by more than the threshold
(default 15%). Each row gates on its own rate counter: sim_ios_per_s
for the throughput benches, remounts_per_s for the BM_Remount rows
(which measure mount latency, not IO) — both are higher-is-better, so
one threshold covers them. Benchmarks present in only one file are
reported but never fatal: a new benchmark (e.g. a fresh
BM_Remount/checkpoint_interval axis point) has no baseline to regress
against, and a removed one cannot regress.

The baseline is recorded with --benchmark_repetitions=5 (see
bench/run_bench.sh) and each row gates on the MEDIAN of its raw
repetitions: one recorded run can be a 2x outlier on a shared host,
and a median of five is not moved by one or two of them. A baseline
recorded without repetitions still works (median of one).

More than one candidate file may be given; each benchmark then gates on
its best (max) rate across every raw run in them. Wall-clock noise on a
shared runner is one-sided — contention only ever makes a run look
slower — so the per-row best across a few recordings estimates the
machine's noise floor and stops the gate from failing on scheduling
jitter instead of code.

Absolute sim-IOs/s are machine-dependent; the gate only means something
when baseline and candidate come from the same runner class (CI records
both on ubuntu-latest; see .github/workflows/ci.yml). Both files must
come from Release builds — bench/run_bench.sh enforces that at record
time.

Usage:
  bench/compare_bench.py BASELINE.json CANDIDATE.json... [--threshold 0.15]
"""
import argparse
import json
import statistics
import sys

# In priority order; the first counter a row carries is its gate metric.
# Rows only present in the candidate (e.g. a freshly added cache bench)
# show as non-fatal NEW until the baseline is regenerated.
METRICS = ("sim_ios_per_s", "remounts_per_s", "cache_gets_per_s")
METRIC = " / ".join(METRICS)  # for messages


def load_rates(path):
    """Map of benchmark name -> (metric, [rate of every raw run])."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rates = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue  # means/medians of repeated runs; compare raw runs only
        for metric in METRICS:
            value = bench.get(metric)
            if value is not None:
                rates.setdefault(bench["name"], (metric, []))[1].append(float(value))
                break
    return rates


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON (each row gates on its median)")
    parser.add_argument(
        "candidate",
        nargs="+",
        help="freshly recorded JSON(s) to gate; with several, each "
        "benchmark uses its best rate across them",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="max allowed fractional drop in %s (default 0.15)" % METRIC,
    )
    args = parser.parse_args()

    base = {
        name: (metric, statistics.median(values))
        for name, (metric, values) in load_rates(args.baseline).items()
    }
    cand = {}
    for path in args.candidate:
        rates = load_rates(path)
        if not rates:
            sys.exit(f"no {METRIC} entries in candidate {path}")
        for name, (metric, values) in rates.items():
            prev = cand.get(name, (metric, 0.0))
            cand[name] = (metric, max([prev[1]] + values))
    if not base:
        sys.exit(f"no {METRIC} entries in baseline {args.baseline}")

    overlap = set(base) & set(cand)
    if not overlap:
        # Every comparison would be MISSING/NEW: the gate would "pass"
        # while checking nothing. Treat as a setup error (stale baseline
        # from a renamed suite, or mismatched files).
        sys.exit(
            f"no benchmark appears in both {args.baseline} and the "
            f"candidate(s); nothing to gate"
        )

    # One aligned table, every benchmark on a row, so the CI log reads as
    # a delta report rather than a scroll of ad-hoc lines.
    regressed = []
    rows = []  # (verdict, name, old, new, delta) — old/new/delta as strings
    for name in sorted(base):
        if name not in cand:
            rows.append(("MISSING", name, f"{base[name][1]:,.0f}", "-", "-"))
            continue
        (bm, b), (cm, c) = base[name], cand[name]
        if bm != cm:
            # The bench changed which counter it reports; a ratio across
            # different units means nothing. Non-fatal, like a rename.
            rows.append(("REMETERED", name, f"{b:,.0f}", f"{c:,.0f}", "-"))
            continue
        ratio = c / b if b > 0 else float("inf")
        verdict = "OK"
        if ratio < 1.0 - args.threshold:
            verdict = "REGRESSED"
            regressed.append(name)
        rows.append(
            (verdict, name, f"{b:,.0f}", f"{c:,.0f}", f"{(ratio - 1.0) * 100.0:+.1f}%")
        )
    for name in sorted(set(cand) - set(base)):
        rows.append(("NEW", name, "-", f"{cand[name][1]:,.0f}", "-"))

    header = ("", "benchmark", "old median", "new best", "delta")
    widths = [
        max(len(r[i]) for r in rows + [header]) for i in range(len(header))
    ]
    def emit(r):
        print(
            f"{r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  "
            f"{r[2]:>{widths[2]}}  {r[3]:>{widths[3]}}  {r[4]:>{widths[4]}}"
        )
    emit(header)
    emit(tuple("-" * w for w in widths))
    for r in rows:
        emit(r)
    print(
        f"\n{len(rows)} benchmark(s): "
        f"{sum(1 for r in rows if r[0] == 'OK')} ok, "
        f"{len(regressed)} regressed, "
        f"{sum(1 for r in rows if r[0] == 'NEW')} new, "
        f"{sum(1 for r in rows if r[0] == 'MISSING')} missing"
    )

    if regressed:
        print(
            f"\nFAIL: {len(regressed)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} in {METRIC}: " + ", ".join(regressed)
        )
        return 1
    print(f"\nPASS: no benchmark regressed more than {args.threshold:.0%} in {METRIC}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
