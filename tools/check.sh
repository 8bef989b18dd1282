#!/usr/bin/env bash
# Tier-1 verification, nine times over: the plain build, an ASan/UBSan
# build, a ThreadSanitizer build for the concurrency suite, a
# Release-mode perf pass that guards the committed BENCH_*.json
# baselines, a kill/resume pass that SIGKILLs a checkpointing crawl
# mid-run (a greedy crawl, then an oracle one) and proves the resumed
# crawl's trace is byte-identical to an uninterrupted one, the same
# kill/resume differential against a whole fleet crawling under
# scripted chaos, a competitive-guarantee gate that crawls a small
# adversarial greedy-trap instance end to end and fails when the
# opt-rank selector exceeds its 2x-of-OPT bound (or when the greedy
# lower-bound gap collapses), and a network resilience pass that
# SIGKILLs a deepcrawl_serve process under a live TCP crawl, restarts
# it on the same port, and proves the client reconnected,
# retransmitted, and produced a byte-identical trace. A ninth pass
# points the same kill/resume
# differential at the adaptive meta-selector crawling a textual source
# through the keyword box under faults, so the checkpoint taken around
# the phase-switch boundary proves out on the real files-on-disk path.
#
# Usage: tools/check.sh [--no-asan] [--no-tsan] [--no-perf] [--no-resume]
#        [--no-competitive] [--no-net] [--no-adaptive]
#
# The plain pass is the canonical `cmake && ctest` loop from ROADMAP.md;
# the ASan pass rebuilds everything into build-asan/ with -DASAN=ON
# (-fsanitize=address,undefined) and runs the same suite, so memory and
# UB bugs surface before they flake in production runs. The TSan pass
# rebuilds into build-tsan/ with -DTSAN=ON (-fsanitize=thread; the two
# sanitizers cannot be combined) and runs the concurrency tests — the
# TCP server's event-loop thread under the net suites, the batched
# engine's differential/stress suites and the fleet — under the race
# detector. The perf pass rebuilds into build-perf/ with
# -DCMAKE_BUILD_TYPE=Release, runs the JSON bench suites, and fails on
# >20% regression against the committed baselines via
# tools/bench_compare.py (see README "Benchmarking").
set -euo pipefail
cd "$(dirname "$0")/.."

# Test suites kept in tests/CMakeLists.txt's deepcrawl_concurrency_tests
# binary (plus the property tests that ride along with it); the net
# suites run a server thread next to the test's own.
TSAN_FILTER='^(AdaptiveDifferentialTest|ParallelCrawlerDifferentialTest|ParallelCrawlerStressTest|CrawlCheckpointTest|AvgInvariantsPropertyTest|TraceWaveTest|HotPathDifferentialTest|CrawlFleetTest|FleetStressTest|OptimalSelectorTest|OptimalCompetitivePropertyTest|NetServerTest|NetDifferentialTest)'

run_suite() {
  local build_dir="$1"; shift
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

# Shared kill/resume differential (passes 5, 6, 9). Launches the
# checkpointing command held in the array named by `$5` in the
# background, waits for its first checkpoint to land at `$2`, SIGKILLs
# it mid-run, then re-runs the command held in the array named by `$6`
# with --resume-from/--trace-csv appended and byte-compares the resumed
# trace against the uninterrupted reference trace `$3`.
kill_resume_differential() {
  local label="$1" ckpt="$2" reference="$3" resumed="$4"
  local -n krd_bg_cmd="$5" krd_resume_cmd="$6"
  "${krd_bg_cmd[@]}" > /dev/null 2>&1 &
  local pid=$!
  # Let it commit some waves, then kill it hard mid-crawl. The callers
  # size their workloads so that checkpointing every wave keeps the run
  # going for seconds after its first checkpoint.
  while [[ ! -s "${ckpt}" ]]; do sleep 0.1; done
  sleep 0.5
  kill -9 "${pid}" 2> /dev/null || true
  local status=0
  wait "${pid}" 2> /dev/null || status=$?
  # 137 = 128 + SIGKILL. Anything else means the run ended on its own
  # before the kill (a finished child still accepts the signal as a
  # zombie), so the resume below would prove nothing: fail loudly so
  # the workload size gets fixed.
  if [[ "${status}" != 137 ]]; then
    echo "${label} FAILED: the SIGKILL did not land mid-run" \
      "(exit status ${status})" >&2
    exit 1
  fi
  if ! "${krd_resume_cmd[@]}" --resume-from="${ckpt}" \
      --trace-csv="${resumed}" > /dev/null; then
    echo "${label} FAILED: resume from checkpoint errored" >&2
    exit 1
  fi
  if ! cmp -s "${reference}" "${resumed}"; then
    echo "${label} FAILED: resumed trace differs from one-shot" >&2
    diff "${reference}" "${resumed}" | head -20 >&2
    exit 1
  fi
  echo "${label}: killed mid-run, traces byte-identical"
}

echo "=== pass 1/9: plain build (build/) ==="
run_suite build

skip_asan=0
skip_tsan=0
skip_perf=0
skip_resume=0
skip_competitive=0
skip_net=0
skip_adaptive=0
for arg in "$@"; do
  case "${arg}" in
    --no-asan) skip_asan=1 ;;
    --no-tsan) skip_tsan=1 ;;
    --no-perf) skip_perf=1 ;;
    --no-resume) skip_resume=1 ;;
    --no-competitive) skip_competitive=1 ;;
    --no-net) skip_net=1 ;;
    --no-adaptive) skip_adaptive=1 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${skip_asan}" == 1 ]]; then
  echo "=== pass 2/9 skipped (--no-asan) ==="
else
  echo "=== pass 2/9: sanitizer build (build-asan/, -DASAN=ON) ==="
  run_suite build-asan -DASAN=ON
fi

if [[ "${skip_tsan}" == 1 ]]; then
  echo "=== pass 3/9 skipped (--no-tsan) ==="
else
  echo "=== pass 3/9: thread sanitizer build (build-tsan/, -DTSAN=ON) ==="
  cmake -B build-tsan -S . -DTSAN=ON
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R "${TSAN_FILTER}"
fi

if [[ "${skip_perf}" == 1 ]]; then
  echo "=== pass 4/9 skipped (--no-perf) ==="
else
  echo "=== pass 4/9: perf regression (build-perf/, Release) ==="
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf -j "$(nproc)" \
    --target bench_micro bench_parallel bench_mmmi_ablation bench_fleet \
    bench_optimal bench_net bench_textual
  ./build-perf/bench/bench_micro --json=build-perf/BENCH_micro.json
  ./build-perf/bench/bench_parallel --json=build-perf/BENCH_parallel.json
  ./build-perf/bench/bench_mmmi_ablation \
    --json=build-perf/BENCH_mmmi_ablation.json
  ./build-perf/bench/bench_fleet --json=build-perf/BENCH_fleet.json
  ./build-perf/bench/bench_optimal --json=build-perf/BENCH_optimal.json
  ./build-perf/bench/bench_net --json=build-perf/BENCH_net.json
  ./build-perf/bench/bench_textual --json=build-perf/BENCH_textual.json
  python3 tools/bench_compare.py --max-regress 0.20 \
    --baseline BENCH_micro.json \
    --current build-perf/BENCH_micro.json \
    --baseline BENCH_parallel.json \
    --current build-perf/BENCH_parallel.json \
    --baseline BENCH_mmmi_ablation.json \
    --current build-perf/BENCH_mmmi_ablation.json \
    --baseline BENCH_fleet.json \
    --current build-perf/BENCH_fleet.json \
    --baseline BENCH_optimal.json \
    --current build-perf/BENCH_optimal.json \
    --baseline BENCH_net.json \
    --current build-perf/BENCH_net.json \
    --baseline BENCH_textual.json \
    --current build-perf/BENCH_textual.json
fi

if [[ "${skip_resume}" == 1 ]]; then
  echo "=== pass 5/9 skipped (--no-resume) ==="
else
  echo "=== pass 5/9: kill/resume checkpoint differential ==="
  # An uninterrupted reference crawl, then the same crawl checkpointing
  # every wave (about 3.5 s at this scale in Release), SIGKILLed mid-run;
  # the resume from its last surviving checkpoint must emit the exact
  # same trace CSV. Exercises the real files-on-disk path (atomic
  # replace, partially-written temp files) that the in-process test
  # sweeps cannot.
  RESUME_DIR="$(mktemp -d)"
  trap 'rm -rf "${RESUME_DIR}"' EXIT
  CRAWL=./build/tools/deepcrawl_crawl
  CRAWL_ARGS=(--workload=ebay --scale=0.3 --policy=greedy
    --fault-profile=flaky --batch=4)
  "${CRAWL}" "${CRAWL_ARGS[@]}" --trace-csv="${RESUME_DIR}/full.csv" \
    > /dev/null
  KR_BG=("${CRAWL}" "${CRAWL_ARGS[@]}"
    --checkpoint="${RESUME_DIR}/crawl.ckpt" --checkpoint-every=1)
  KR_RESUME=("${CRAWL}" "${CRAWL_ARGS[@]}")
  kill_resume_differential "kill/resume differential" \
    "${RESUME_DIR}/crawl.ckpt" "${RESUME_DIR}/full.csv" \
    "${RESUME_DIR}/resumed.csv" KR_BG KR_RESUME
  # The same differential for the oracle policy, whose selector reads the
  # backend's ground truth: no selector serializes itself, so only the
  # replay of the checkpoint's fetch log can rebuild it.
  ORACLE_ARGS=(--workload=ebay --scale=0.3 --policy=oracle
    --fault-profile=flaky --batch=4)
  "${CRAWL}" "${ORACLE_ARGS[@]}" --trace-csv="${RESUME_DIR}/oracle-full.csv" \
    > /dev/null
  KR_BG=("${CRAWL}" "${ORACLE_ARGS[@]}"
    --checkpoint="${RESUME_DIR}/oracle.ckpt" --checkpoint-every=1)
  KR_RESUME=("${CRAWL}" "${ORACLE_ARGS[@]}")
  kill_resume_differential "oracle kill/resume differential" \
    "${RESUME_DIR}/oracle.ckpt" "${RESUME_DIR}/oracle-full.csv" \
    "${RESUME_DIR}/oracle-resumed.csv" KR_BG KR_RESUME
fi

if [[ "${skip_resume}" == 1 ]]; then
  echo "=== pass 6/9 skipped (--no-resume) ==="
else
  echo "=== pass 6/9: fleet kill/resume under chaos ==="
  # Pass 5 for the whole fleet: an uninterrupted 4-source fleet crawl
  # under the hostile chaos schedule, then the same fleet checkpointing
  # every turn (about 4.5 s at this scale in Release), SIGKILLed
  # mid-chaos;
  # the resume from the last surviving whole-fleet checkpoint (its
  # budgets, turn count and every source's fetch log, replayed turn by
  # turn) must emit a byte-identical per-source trace CSV.
  FLEET_DIR="$(mktemp -d)"
  # Keep cleaning pass 5's dir too (one trap per signal).
  trap 'rm -rf "${RESUME_DIR:-}" "${FLEET_DIR}"' EXIT
  FLEET=./build/tools/deepcrawl_fleet
  FLEET_ARGS=(--sources=4 --scale=0.03 --target-coverage=0.9 --seeds=8
    --retry-requeues=16 --fault-profile=flaky --chaos=hostile --seed=42)
  "${FLEET}" "${FLEET_ARGS[@]}" --trace-csv="${FLEET_DIR}/full.csv" \
    > /dev/null
  KR_BG=("${FLEET}" "${FLEET_ARGS[@]}"
    --checkpoint="${FLEET_DIR}/fleet.ckpt" --checkpoint-every=1)
  KR_RESUME=("${FLEET}" "${FLEET_ARGS[@]}")
  kill_resume_differential "fleet kill/resume differential" \
    "${FLEET_DIR}/fleet.ckpt" "${FLEET_DIR}/full.csv" \
    "${FLEET_DIR}/resumed.csv" KR_BG KR_RESUME
fi

if [[ "${skip_competitive}" == 1 ]]; then
  echo "=== pass 7/9 skipped (--no-competitive) ==="
else
  echo "=== pass 7/9: competitive-guarantee gate (adversarial trap) ==="
  # End-to-end through the real CLI: generate a B=32 greedy-trap
  # instance, crawl it to full coverage with opt-rank and with greedy,
  # and gate on the measured cost/OPT ratios — the descent must stay
  # within its 2x bound and the greedy gap must not collapse (the trap
  # regressing would silently void the lower-bound property suite).
  CRAWL=./build/tools/deepcrawl_crawl
  ADV_ARGS=(--workload=adversarial --target-coverage=1 --adv-buckets=24
    --adv-records=4 --adv-decoy-buckets=8 --adv-decoy-width=32)
  rank_ratio="$("${CRAWL}" "${ADV_ARGS[@]}" --policy=opt-rank \
    | awk -F'ratio=' '/^  competitive:/ {print $2}')"
  greedy_ratio="$("${CRAWL}" "${ADV_ARGS[@]}" --policy=greedy \
    | awk -F'ratio=' '/^  competitive:/ {print $2}')"
  if [[ -z "${rank_ratio}" || -z "${greedy_ratio}" ]]; then
    echo "competitive gate FAILED: no ratio line in crawl output" >&2
    exit 1
  fi
  echo "opt-rank cost/OPT: ${rank_ratio}  greedy cost/OPT: ${greedy_ratio}"
  if ! awk -v r="${rank_ratio}" 'BEGIN { exit !(r <= 2.0) }'; then
    echo "competitive gate FAILED: opt-rank ratio ${rank_ratio} > 2.0" >&2
    exit 1
  fi
  if ! awk -v g="${greedy_ratio}" -v r="${rank_ratio}" \
      'BEGIN { exit !(g >= 4.0 * r) }'; then
    echo "competitive gate FAILED: greedy gap collapsed" \
      "(greedy ${greedy_ratio} < 4x opt-rank ${rank_ratio})" >&2
    exit 1
  fi
  echo "competitive gate: bound holds, separation intact"
fi

if [[ "${skip_net}" == 1 ]]; then
  echo "=== pass 8/9 skipped (--no-net) ==="
else
  echo "=== pass 8/9: network kill/reconnect over real sockets ==="
  # The wire protocol's story end to end through the real binaries, in
  # two differentials. (a) Transparency: the same faulty crawl run
  # in-process and against a deepcrawl_serve process must emit
  # byte-identical traces — keyed fault injection crosses the wire
  # unchanged. (b) Resilience: a fault-free crawl against a slowed
  # server (per-response latency stretches the run) whose process is
  # SIGKILLed mid-crawl and restarted on the same port must reconnect,
  # retransmit the in-flight wave, and still finish byte-identical to
  # the in-process run. (b) runs fault-free on purpose: keyed fault
  # attempt counters are server state, so a restarted server re-faults
  # first attempts it has forgotten — restart equivalence is a promise
  # about the stateless protocol, not about fault bookkeeping.
  NET_DIR="$(mktemp -d)"
  # Keep cleaning the earlier passes' dirs too (one trap per signal).
  trap 'rm -rf "${RESUME_DIR:-}" "${FLEET_DIR:-}" "${NET_DIR}"' EXIT
  SERVE=./build/tools/deepcrawl_serve
  CRAWL=./build/tools/deepcrawl_crawl
  NET_BASE=(--workload=ebay --scale=0.05 --policy=greedy --batch=4)
  # (a) faulty wire transparency.
  "${CRAWL}" "${NET_BASE[@]}" --fault-profile=flaky \
    --trace-csv="${NET_DIR}/inproc_flaky.csv" > /dev/null
  "${SERVE}" --workload=ebay --scale=0.05 --fault-profile=flaky \
    --port-file="${NET_DIR}/port" > /dev/null 2>&1 &
  SERVE_PID=$!
  while [[ ! -s "${NET_DIR}/port" ]]; do sleep 0.05; done
  NET_PORT="$(cat "${NET_DIR}/port")"
  "${CRAWL}" "${NET_BASE[@]}" --fault-profile=flaky --connections=4 \
    --connect="127.0.0.1:${NET_PORT}" \
    --trace-csv="${NET_DIR}/tcp_flaky.csv" > /dev/null
  kill "${SERVE_PID}" 2> /dev/null || true
  wait "${SERVE_PID}" 2> /dev/null || true
  if ! cmp -s "${NET_DIR}/inproc_flaky.csv" "${NET_DIR}/tcp_flaky.csv"; then
    echo "network transparency FAILED: TCP trace differs in-process" >&2
    diff "${NET_DIR}/inproc_flaky.csv" "${NET_DIR}/tcp_flaky.csv" \
      | head -20 >&2
    exit 1
  fi
  echo "network transparency: faulty TCP trace byte-identical in-process"
  # (b) kill/reconnect across a server restart.
  "${CRAWL}" "${NET_BASE[@]}" \
    --trace-csv="${NET_DIR}/inproc_clean.csv" > /dev/null
  "${SERVE}" --workload=ebay --scale=0.05 --port="${NET_PORT}" \
    --latency-us=10000 > /dev/null 2>&1 &
  SERVE_PID=$!
  sleep 0.3
  "${CRAWL}" "${NET_BASE[@]}" --connections=4 \
    --connect="127.0.0.1:${NET_PORT}" \
    --trace-csv="${NET_DIR}/tcp_killed.csv" > "${NET_DIR}/killed.out" &
  NET_CRAWL_PID=$!
  sleep 1
  kill -9 "${SERVE_PID}" 2> /dev/null || true
  wait "${SERVE_PID}" 2> /dev/null || true
  "${SERVE}" --workload=ebay --scale=0.05 --port="${NET_PORT}" \
    > /dev/null 2>&1 &
  SERVE_PID=$!
  if ! wait "${NET_CRAWL_PID}"; then
    echo "network kill/reconnect FAILED: crawl errored across restart" >&2
    kill "${SERVE_PID}" 2> /dev/null || true
    exit 1
  fi
  kill "${SERVE_PID}" 2> /dev/null || true
  wait "${SERVE_PID}" 2> /dev/null || true
  if ! cmp -s "${NET_DIR}/inproc_clean.csv" "${NET_DIR}/tcp_killed.csv"; then
    echo "network kill/reconnect FAILED: trace differs after restart" >&2
    diff "${NET_DIR}/inproc_clean.csv" "${NET_DIR}/tcp_killed.csv" \
      | head -20 >&2
    exit 1
  fi
  # reconnects == 0 would mean the kill landed after the crawl was done
  # and the pass proved nothing; fail loudly so the timing gets fixed.
  NET_RECONNECTS="$(awk '/network:/ {print $(NF-1)}' \
    "${NET_DIR}/killed.out")"
  if [[ -z "${NET_RECONNECTS}" || "${NET_RECONNECTS}" == 0 ]]; then
    echo "network kill/reconnect FAILED: crawl never saw the restart" \
      "(reconnects=${NET_RECONNECTS:-none})" >&2
    exit 1
  fi
  echo "network kill/reconnect: trace byte-identical," \
    "${NET_RECONNECTS} reconnect(s)"
fi

if [[ "${skip_adaptive}" == 1 ]]; then
  echo "=== pass 9/9 skipped (--no-adaptive) ==="
else
  echo "=== pass 9/9: adaptive switch kill/resume on a textual source ==="
  # The adaptive meta-selector (GL -> GL+MMMI -> term-weight) crawling a
  # generated textual database through the keyword box under faults,
  # batched, checkpointing every wave (about 3.3 s in Release). The
  # SIGKILL lands while the chain's estimator
  # and phase counters are live state, so the resumed crawl only matches
  # byte for byte if replaying the fetch log rebuilds the whole chain —
  # active phase, per-child frontiers, EWMA — exactly, switch wave
  # included.
  ADAPT_DIR="$(mktemp -d)"
  trap 'rm -rf "${RESUME_DIR:-}" "${FLEET_DIR:-}" "${NET_DIR:-}" "${ADAPT_DIR}"' EXIT
  CRAWL=./build/tools/deepcrawl_crawl
  ADAPT_ARGS=(--workload=textual --scale=0.1 --policy=adaptive --keyword
    --result-limit=110 --fault-profile=flaky --batch=4)
  "${CRAWL}" "${ADAPT_ARGS[@]}" --trace-csv="${ADAPT_DIR}/full.csv" \
    > /dev/null
  KR_BG=("${CRAWL}" "${ADAPT_ARGS[@]}"
    --checkpoint="${ADAPT_DIR}/crawl.ckpt" --checkpoint-every=1)
  KR_RESUME=("${CRAWL}" "${ADAPT_ARGS[@]}")
  kill_resume_differential "adaptive kill/resume differential" \
    "${ADAPT_DIR}/crawl.ckpt" "${ADAPT_DIR}/full.csv" \
    "${ADAPT_DIR}/resumed.csv" KR_BG KR_RESUME
fi

echo "all requested checks passed"
