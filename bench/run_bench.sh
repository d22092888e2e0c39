#!/usr/bin/env bash
# Record the emulator self-benchmark from a provenance-checked Release build.
#
# The first committed baseline was accidentally recorded from a Debug
# build, which understated throughput ~10x and made every later Release
# run look like a huge win. This script makes that mistake structurally
# impossible:
#
#   1. configures + builds the harness with CMAKE_BUILD_TYPE=Release;
#   2. re-reads CMAKE_BUILD_TYPE back out of CMakeCache.txt and refuses
#      to write JSON unless it says Release. (google-benchmark's
#      "library_build_type" context field describes the *system
#      libbenchmark* flavor, not this repo's build, so it cannot serve
#      as the provenance check.)
#
# Usage:
#   bench/run_bench.sh [out.json]          # default: BENCH_emulator_throughput.json
#   BUILD_DIR=build-rel bench/run_bench.sh # use/configure a different build tree
#   BENCH_ARGS="--benchmark_min_time=0.2" bench/run_bench.sh  # extra harness args
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$REPO/build}"
OUT="${1:-$REPO/BENCH_emulator_throughput.json}"

cmake -B "$BUILD" -S "$REPO" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j --target bench_emulator_throughput

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")"
if [ "$build_type" != "Release" ]; then
  echo "run_bench.sh: refusing to record JSON: CMAKE_BUILD_TYPE='$build_type'" \
       "in $BUILD/CMakeCache.txt (need Release)" >&2
  exit 1
fi

# shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split
"$BUILD/bench/bench_emulator_throughput" \
  --benchmark_out="$OUT" --benchmark_out_format=json ${BENCH_ARGS:-}
echo "run_bench.sh: wrote $OUT (CMAKE_BUILD_TYPE=$build_type)"
