#!/usr/bin/env bash
# Profile of a crawl. With `perf` on PATH: builds deepcrawl_crawl in
# Release with frame pointers kept (-DDEEPCRAWL_PROFILE=ON), runs it
# under `perf record -g`, and prints the hottest stacks. Without perf:
# builds it with gprof instrumentation (-pg) into its own build
# directory, runs it, and prints the `gprof -b -p` flat profile. Start
# every hot-path investigation here — the CSR local graph, the
# incremental MMMI scorer and the store's prefetched ingest were each
# scoped off such a profile.
#
# Usage:
#   tools/profile_crawl.sh [crawl args...]
#
# Default crawl args are the paper's baseline crawl in the shape of
# crawlbench's greedy-imdb workload (IMDB at scale 0.3, greedy), whose
# hot spot is the local store's ingest (LocalStore::AddRecord's edge
# hash). The MMMI marginal phase, the hot spot before the incremental
# scorer, now takes a fraction of a second; profile it with
# `--workload=ebay --scale=0.1 --policy=mmmi --target-coverage=0.99
# --saturation=0.85`.
# Output with perf: build-profile/perf.data (open with `perf report`)
# plus an inline `perf report --stdio` summary. Pipe perf.data through
# stackcollapse-perf.pl/flamegraph.pl for an SVG if you have FlameGraph
# checked out. Output without perf: build-gprof/gmon.out and
# build-gprof/flat.txt, the flat profile (self time per function, call
# counts), whose head is printed.
set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=("$@")
if [[ ${#ARGS[@]} -eq 0 ]]; then
  ARGS=(--workload=imdb --scale=0.3 --policy=greedy)
fi

if ! command -v perf >/dev/null 2>&1; then
  echo "perf not found; falling back to a gprof (-pg) build" >&2
  BUILD_DIR=build-gprof
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DDEEPCRAWL_BUILD_TESTS=OFF -DDEEPCRAWL_BUILD_BENCHMARKS=OFF \
    -DDEEPCRAWL_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target deepcrawl_crawl
  # The instrumented binary writes gmon.out into the working directory
  # at exit; keep it with the build.
  "${BUILD_DIR}/tools/deepcrawl_crawl" "${ARGS[@]}"
  mv gmon.out "${BUILD_DIR}/gmon.out"
  gprof -b -p "${BUILD_DIR}/tools/deepcrawl_crawl" "${BUILD_DIR}/gmon.out" \
    > "${BUILD_DIR}/flat.txt"
  echo
  echo "=== flat profile (gprof -b -p, top 40 lines) ==="
  head -40 "${BUILD_DIR}/flat.txt"
  echo
  echo "full profile: gprof ${BUILD_DIR}/tools/deepcrawl_crawl" \
    "${BUILD_DIR}/gmon.out"
  exit 0
fi

BUILD_DIR=build-profile
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release -DDEEPCRAWL_PROFILE=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target deepcrawl_crawl

perf record -g --output="${BUILD_DIR}/perf.data" -- \
  "${BUILD_DIR}/tools/deepcrawl_crawl" "${ARGS[@]}"

echo
echo "=== hottest stacks (perf report --stdio, top 40 lines) ==="
perf report --stdio --input="${BUILD_DIR}/perf.data" 2>/dev/null | head -40
echo
echo "full data: perf report --input=${BUILD_DIR}/perf.data"
