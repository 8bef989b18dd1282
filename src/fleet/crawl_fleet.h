// CrawlFleet: N independent target databases crawled under one global
// budget, with per-source fault isolation (DESIGN.md §11).
//
// The paper ranks queries within one database; the ROADMAP north-star is
// a production crawler running hundreds of heterogeneous sources
// concurrently, where the portfolio analogue of per-query HR(q) is
// allocating the next wave of rounds to the SOURCE with the best
// health-discounted marginal harvest rate. The fleet owns one full
// crawl stack per source —
//
//   Table → WebDbServer → FaultyServer (keyed, per-source derived seed)
//         [→ LockedQueryInterface] → CrawlEngine
//
// — all engines fetching through ONE shared executor (thread pool or
// inline), and schedules them in turns: each turn grants a bounded slice
// of communication rounds to one source via the engine's budget-sliced
// Run() (bit-identical to an uninterrupted run, proven by the engine's
// own tests). Around every source sits the isolation machinery:
//
//   * a three-state CircuitBreaker tripping on consecutive fully-failed
//     turns or a failure-rate EWMA, with half-open probe re-admission,
//     quarantine, and capped re-probe backoff for flappers;
//   * a TokenBucket politeness limiter, plus a hard not-before floor
//     from the server's own retry-after hints;
//   * a per-source round deadline so one stalled source cannot eat the
//     pool;
//   * a fleet-level ChaosSchedule forcing scripted fault windows.
//
// Determinism contract: fleet output is a pure function of (specs,
// options) — in particular of (seed, batch, chaos schedule); the thread
// count is wall-clock only, exactly as for the single engine. Turn
// boundaries are the fleet's durable points: the whole fleet (scheduler
// state, breakers, buckets, every engine and fault proxy) checkpoints
// and resumes as one unit under the bit-identity contract.
//
// Graceful degradation is explicit, never silent: the result carries a
// SourceDegradation report per source (records missing, ticks
// quarantined, every breaker transition), and a source that fails hard
// is abandoned with its Status — the fleet keeps crawling the rest.

#ifndef DEEPCRAWL_FLEET_CRAWL_FLEET_H_
#define DEEPCRAWL_FLEET_CRAWL_FLEET_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/local_store.h"
#include "src/crawler/metrics.h"
#include "src/crawler/query_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/fleet/chaos.h"
#include "src/fleet/circuit_breaker.h"
#include "src/fleet/token_bucket.h"
#include "src/relation/table.h"
#include "src/server/faulty_server.h"
#include "src/server/locked_interface.h"
#include "src/server/web_db_server.h"
#include "src/util/status.h"

namespace deepcrawl {

// How the scheduler picks the next turn's source among the eligible:
//   * kMarginalHarvest — sources due a breaker probe first, then the
//     best health-discounted marginal harvest rate,
//       score = max(HR-EWMA, hr_floor) · max(0, 1 − failure-EWMA),
//     ties to the lowest id (the paper's HR(q) ranking, lifted from
//     queries to sources);
//   * kRoundRobin — cycle through eligible sources;
//   * kSequential — drain the lowest-id eligible source to completion
//     first (the naive baseline the bench compares against).
enum class SchedulerPolicy : uint8_t {
  kMarginalHarvest = 0,
  kRoundRobin = 1,
  kSequential = 2,
};

const char* SchedulerPolicyToString(SchedulerPolicy policy);
StatusOr<SchedulerPolicy> ParseSchedulerPolicy(std::string_view name);

// One target database plus everything source-specific about crawling it.
struct FleetSourceSpec {
  FleetSourceSpec(std::string name, Table table)
      : name(std::move(name)), table(std::move(table)) {}

  std::string name;
  Table table;
  // Query-selection policy for this source: greedy|mmmi|bfs|dfs.
  std::string policy = "greedy";
  ServerOptions server;
  FaultProfile faults;
  // Per-source stop target, as a fraction of the table's records
  // (0 = crawl to frontier exhaustion), and the GL→MMMI saturation
  // switch-over point.
  double target_coverage = 0.0;
  double saturation = 0.85;
  uint32_t num_seeds = 1;
};

struct FleetOptions {
  // Fleet seed: per-source fault/retry/seed-value streams are derived
  // via FaultyServer::DeriveSourceSeed(seed, source_id), so no source's
  // stream depends on any other source existing.
  uint64_t seed = 1;
  SchedulerPolicy scheduler = SchedulerPolicy::kMarginalHarvest;
  // Shared fetch executor: 1 = inline (fully serial), > 1 = one thread
  // pool shared by every source's engine. Wall-clock only.
  uint32_t threads = 1;
  // Per-source engine wave width (semantic, like the engine's batch).
  uint32_t batch = 1;
  // Communication rounds granted per scheduler turn (the time slice).
  uint64_t turn_rounds = 16;
  // Global round budget across all sources (0 = unbounded).
  uint64_t max_total_rounds = 0;
  // Per-source deadline: total rounds a single source may consume before
  // it is retired (0 = unbounded). Isolation against stalled sources.
  uint64_t source_deadline_rounds = 0;
  // Simulated per-fetch latency, applied via LockedQueryInterface when
  // threads > 1 or latency_us > 0 (used to stretch wall-clock for the
  // kill/resume check).
  uint64_t latency_us = 0;
  CircuitBreakerConfig breaker;
  PolitenessConfig politeness;
  // Per-source retry policies copy this config with seed rewritten to
  // the source's derived seed.
  RetryPolicyConfig retry;
  ChaosSchedule chaos;
  // Health EWMA for the marginal-harvest score, and the optimistic floor
  // that keeps a not-yet-sampled or temporarily-dry source schedulable.
  double hr_ewma_alpha = 0.4;
  double hr_floor = 0.05;
  // Invoke `checkpoint_sink` after every N completed turns (0 = never);
  // turn boundaries are the fleet's durable points.
  uint64_t checkpoint_every_turns = 0;
  std::function<Status(const class CrawlFleet&)> checkpoint_sink;
};

struct FleetSourceOutcome {
  // The source's own crawl result (per-source trace included); its stop
  // reason is kRoundBudget when the fleet stopped before the source
  // finished.
  CrawlResult result;
  SourceDegradation degradation;
  // Non-OK when the source failed hard and was abandoned (the fleet
  // continued without it).
  Status error;
};

struct FleetResult {
  // One outcome per source, in source-id order.
  std::vector<FleetSourceOutcome> sources;
  // Fleet-level view: the merged trace (total rounds vs total records,
  // one point per turn), summed counters, and every source's
  // degradation report in source_reports.
  CrawlResult merged;
  uint64_t turns = 0;
  uint64_t idle_ticks = 0;
};

class CrawlFleet {
 public:
  // Builds the full per-source stacks. The specs are moved in and owned
  // by the fleet (the tables must stay put, so the fleet never exposes
  // mutable specs).
  CrawlFleet(std::vector<FleetSourceSpec> specs, FleetOptions options);
  ~CrawlFleet();

  CrawlFleet(const CrawlFleet&) = delete;
  CrawlFleet& operator=(const CrawlFleet&) = delete;

  // Runs scheduler turns until every source is finished, abandoned, or
  // breaker-exhausted, or the global round budget is hit. Re-callable
  // with a raised budget, like CrawlEngine::Run. Per-source hard
  // failures do NOT fail the fleet (isolation); only checkpoint-sink
  // failures do.
  StatusOr<FleetResult> Run();

  uint32_t num_sources() const;
  uint64_t clock() const { return clock_; }
  uint64_t turns_completed() const { return turns_completed_; }
  uint64_t total_rounds() const { return total_rounds_; }
  uint64_t total_records() const { return total_records_; }
  uint64_t idle_ticks() const { return idle_ticks_; }
  const FleetOptions& options() const { return options_; }
  const FleetSourceSpec& spec(uint32_t i) const;
  const CrawlEngine& engine(uint32_t i) const;
  const LocalStore& store(uint32_t i) const;
  const CircuitBreaker& breaker(uint32_t i) const;
  const TokenBucket& bucket(uint32_t i) const;
  const FaultyServer& faulty(uint32_t i) const;
  // The source's degradation report as of now (final in FleetResult).
  SourceDegradation DegradationOf(uint32_t i) const;

  // Raises/changes the global round budget between Run() calls.
  void set_max_total_rounds(uint64_t rounds) {
    options_.max_total_rounds = rounds;
  }

  // --- checkpointing ---------------------------------------------------
  // Serializes the whole fleet — scheduler state, every breaker, token
  // bucket, engine payload, and fault proxy — as one unit. LoadState
  // requires a freshly constructed fleet whose specs/options match the
  // checkpointing run; on error the fleet must be discarded.
  Status SaveState(CheckpointWriter& writer) const;
  Status LoadState(CheckpointReader& reader);

 private:
  struct Source;

  bool Active(const Source& source) const;
  bool Eligible(const Source& source) const;
  // Picks the next source among eligible ids (ascending); see
  // SchedulerPolicy.
  uint32_t Pick(const std::vector<uint32_t>& eligible) const;
  // Runs one granted turn on source `i`; only checkpoint-sink failures
  // surface as non-OK.
  Status RunTurn(uint32_t i);
  // No source is eligible right now: advance the clock to the earliest
  // future eligibility (breaker cooldown, politeness floor, or token
  // refill), counting the skipped ticks as idle.
  void AdvanceToNextEligibility();
  void PlantSeeds();
  FleetResult BuildResult() const;

  std::vector<FleetSourceSpec> specs_;
  FleetOptions options_;
  std::unique_ptr<FetchExecutor> executor_;
  std::vector<Source> sources_;

  // Fleet simulated clock: advances one tick per communication round any
  // source consumes, plus idle waits.
  uint64_t clock_ = 0;
  uint64_t total_rounds_ = 0;
  uint64_t total_records_ = 0;
  uint64_t turns_completed_ = 0;
  uint64_t idle_ticks_ = 0;
  uint32_t last_picked_ = 0;
  bool seeded_ = false;
  CrawlTrace fleet_trace_;
};

// Heterogeneous fleet builder: cycles the paper's four canned workloads
// (eBay, ACM DL, DBLP, IMDB) at `scale`, generator seeds offset per
// source, all sources sharing `faults` and `target_coverage`.
StatusOr<std::vector<FleetSourceSpec>> MakeFleetSourceSpecs(
    uint32_t num_sources, double scale, double target_coverage,
    FaultProfile faults = FaultProfile{}, uint64_t gen_seed = 1);

// Writes every source's trace as "source,rounds,records" rows in
// source-id order — the byte-comparable artifact of the kill/resume
// check (a resumed fleet must reproduce it byte-for-byte).
Status WriteFleetTraceCsv(const FleetResult& result, std::ostream& output);

// --- whole-fleet checkpoint orchestration ----------------------------
//
// Same DCPK framing as single-engine checkpoints (magic, version, size,
// checksum, atomic write), with a fleet version namespace so the two
// file kinds can never be confused, and the same corruption contract:
// any mangled byte is rejected with a clean Status, never a crash.

// v1002: fleet format 1 over engine payload version 2.
// v1005: fleet format 1 over engine payload version 5 (fleet images
//        embed CrawlEngine::SaveState, so every engine bump is a fleet
//        bump too).
// v1006: fleet format 1 over engine payload version 6.
// v1007: fleet format 1 over engine payload version 7.
// v1008: fleet format 1 over engine payload version 8 (the engine
//        payload is its fetch log, replayed on load).
inline constexpr uint32_t kFleetCheckpointVersion = 1008;

inline constexpr uint32_t kSectionFleet = 0x54454c46;        // "FLET"
inline constexpr uint32_t kSectionFleetSource = 0x43525346;  // "FSRC"

StatusOr<std::string> EncodeFleetCheckpoint(const CrawlFleet& fleet);
Status DecodeFleetCheckpoint(std::string_view image, CrawlFleet& fleet);
Status SaveFleetCheckpoint(const CrawlFleet& fleet, const std::string& path);
Status LoadFleetCheckpoint(const std::string& path, CrawlFleet& fleet);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_FLEET_CRAWL_FLEET_H_
