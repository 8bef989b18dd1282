// CrawlFleet: N independent target databases crawled under one global
// budget, with per-source fault isolation (DESIGN.md §11).
//
// The paper ranks queries within one database; the ROADMAP north-star is
// a production crawler running hundreds of heterogeneous sources
// concurrently, where the portfolio analogue of per-query HR(q) is
// allocating the next wave of rounds to the SOURCE with the best
// marginal harvest rate. The fleet owns one full crawl stack per
// source —
//
//   Table → WebDbServer → FaultyServer (per-source derived seed)
//         → CrawlEngine
//
// — and schedules them in turns: each turn grants a bounded slice
// of communication rounds to one source via the engine's budget-sliced
// Run() (bit-identical to an uninterrupted run, proven by the engine's
// own tests). Around every source sits the isolation machinery:
//
//   * a three-state CircuitBreaker tripping on consecutive fully-failed
//     turns, with half-open probe re-admission, quarantine, and capped
//     re-probe backoff for flappers;
//   * a hard not-before floor from the server's own retry-after hints;
//   * a per-source round deadline so one stalled source cannot eat the
//     global budget;
//   * a fleet-level ChaosSchedule forcing scripted fault windows.
//
// Determinism contract: fleet output is a pure function of (specs,
// options) — in particular of (seed, batch, chaos schedule). Turn
// boundaries are the fleet's durable points: the whole fleet
// checkpoints and resumes as one unit under the bit-identity contract.
// Like an engine checkpoint, a fleet checkpoint holds only inputs — the
// Run() budgets, the completed-turn count, and every source's fetch log
// and fault proxy — and a restore replays the turns to rebuild the
// scheduler, breakers and engines.
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
#include "src/relation/table.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/status.h"

namespace deepcrawl {

// How the scheduler picks the next turn's source among the eligible:
//   * kMarginalHarvest — sources due a breaker probe first, then sources
//     with no granted turn yet, then the best marginal harvest rate:
//     new records per consumed round over the source's last turn, ties
//     to the lowest id (the paper's HR(q) ranking, lifted from queries to
//     sources; a failed fetch already costs its round in the rate);
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
  // Per-source engine wave width (semantic, like the engine's batch).
  uint32_t batch = 1;
  // Communication rounds granted per scheduler turn (the time slice).
  uint64_t turn_rounds = 16;
  // Global round budget across all sources (0 = unbounded).
  uint64_t max_total_rounds = 0;
  // Per-source deadline: total rounds a single source may consume before
  // it is retired (0 = unbounded). Isolation against stalled sources.
  uint64_t source_deadline_rounds = 0;
  // Per-source retry policies copy this config with seed rewritten to
  // the source's derived seed.
  RetryPolicyConfig retry;
  ChaosSchedule chaos;
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
  // with a raised budget, which continues from where the capped run
  // stopped; a fleet resumed from a checkpoint taken there continues
  // identically. It is NOT the same as one run under the raised budget:
  // the turn that hits the cap gets a grant clamped to the rounds left,
  // so the harvest-rate and breaker observations after it, and thus later
  // picks, can differ. Per-source hard failures do NOT fail the fleet
  // (isolation); only checkpoint-sink failures do.
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
  const FaultyServer& faulty(uint32_t i) const;
  // The source's degradation report as of now (final in FleetResult).
  SourceDegradation DegradationOf(uint32_t i) const;

  // Raises/changes the global round budget between Run() calls.
  void set_max_total_rounds(uint64_t rounds) {
    options_.max_total_rounds = rounds;
  }

  // --- checkpointing ---------------------------------------------------
  // Serializes the fleet's inputs: the config fingerprint, every Run()
  // budget with the turn it took effect at, the completed-turn count,
  // and per source its engine's fetch log and its fault proxy. LoadState
  // requires a freshly constructed fleet whose specs/options match the
  // checkpointing run. It replays the turns with the checkpoint sink
  // silent, each engine serving its fetches from its log, so everything
  // else — clock, breakers, retry-after floors, harvest rates, trace —
  // comes from the same scheduler code that produced it; resume therefore
  // costs the CPU of the turns already run. An image whose parts disagree
  // is rejected with a clean error; on error the fleet must be discarded.
  Status SaveState(CheckpointWriter& writer) const;
  Status LoadState(CheckpointReader& reader);

 private:
  struct Source;
  // The global round budget a Run() call ran under, and the completed
  // turn count it took effect at.
  struct BudgetMark {
    uint64_t turn = 0;
    uint64_t max_total_rounds = 0;
  };

  bool Active(const Source& source) const;
  bool Eligible(const Source& source) const;
  // Picks the next source among eligible ids (ascending); see
  // SchedulerPolicy.
  uint32_t Pick(const std::vector<uint32_t>& eligible) const;
  // Runs scheduler turns until nothing is left to run under the budget,
  // or until `turn_limit` turns have completed; only checkpoint-sink
  // failures surface as non-OK.
  Status RunTurns(uint64_t turn_limit);
  // Runs one granted turn on source `i`; only checkpoint-sink failures
  // surface as non-OK.
  Status RunTurn(uint32_t i);
  // No source is eligible right now: advance the clock to the earliest
  // future eligibility (breaker cooldown or retry-after floor), counting
  // the skipped ticks as idle.
  void AdvanceToNextEligibility();
  void PlantSeeds();
  // Marks a Run() whose budget differs from the last marked one.
  void MarkBudget();
  // Begins each engine's replay over its reader in `logs`, then replays
  // `turns` turns under `budgets`. Ending the replays is left to the
  // caller, also on error (some may not have begun).
  Status ReplayTurns(const std::vector<BudgetMark>& budgets, uint64_t turns,
                     std::vector<CheckpointReader>& logs);
  FleetResult BuildResult() const;

  std::vector<FleetSourceSpec> specs_;
  FleetOptions options_;
  std::vector<Source> sources_;

  // Fleet simulated clock: advances one tick per communication round any
  // source consumes, plus idle waits.
  uint64_t clock_ = 0;
  uint64_t total_rounds_ = 0;
  uint64_t total_records_ = 0;
  uint64_t turns_completed_ = 0;
  uint64_t idle_ticks_ = 0;
  uint32_t last_picked_ = 0;
  CrawlTrace fleet_trace_;
  // One mark per Run() whose budget differs from the last; empty until
  // the first Run() planted the seeds.
  std::vector<BudgetMark> budgets_;
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

// Payload (little-endian; checkpoint_io.h has the framing):
//   FLET  config fingerprint; chaos schedule echo (u64 n, n events);
//         u64 n budget marks, each u64 turn + u64 max_total_rounds, in
//         turn order; u64 completed turns
//   FSRC  per source, in id order: name; the engine's CONF and LOG
//         sections (CrawlEngine::SaveState) as one u32-length-prefixed
//         blob; the fault proxy's FALT state
//   END!
//
// v1002, v1005-v1008: fleet format 1 (scheduler, breaker and bucket
//        state stored field by field) over the engine payload version in
//        the last digit; the image embeds CrawlEngine::SaveState, so every
//        engine bump is a fleet bump too.
// v1009: fleet format 2 over engine payload version 8: inputs only (the
//        budget marks and turn count above); scheduler, breaker, bucket
//        and health state are rebuilt by replaying the turns.
// v1010: format 2 over engine payload version 8, with the fingerprint's
//        two harvest-EWMA knobs (hr_ewma_alpha, hr_floor) dropped along
//        with the options.
// v1011: format 2 over engine payload version 8, with the fingerprint's
//        three knobs of the breaker's failure-rate trip and two of the
//        politeness token bucket dropped along with both mechanisms.
// v1012: format 2 over engine payload version 8, with the fingerprint's
//        six breaker fields and four retry backoff-shape fields dropped;
//        both are constants now (CircuitBreaker, RetryPolicy).
// v1013: format 2 over engine payload version 9: each source's FALT lost
//        the keyed-mode byte and the two fault-RNG words.
// v1014: format 2 over engine payload version 10: each source's FALT lost
//        the proxy's two meter words.
inline constexpr uint32_t kFleetCheckpointVersion = 1014;

inline constexpr uint32_t kSectionFleet = 0x54454c46;        // "FLET"
inline constexpr uint32_t kSectionFleetSource = 0x43525346;  // "FSRC"

StatusOr<std::string> EncodeFleetCheckpoint(const CrawlFleet& fleet);
Status DecodeFleetCheckpoint(std::string_view image, CrawlFleet& fleet);
Status SaveFleetCheckpoint(const CrawlFleet& fleet, const std::string& path);
Status LoadFleetCheckpoint(const std::string& path, CrawlFleet& fleet);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_FLEET_CRAWL_FLEET_H_
