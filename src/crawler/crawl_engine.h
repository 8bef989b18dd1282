// CrawlEngine: the paper's query-harvest-decompose loop (§1, §2.5), the
// one way to run a crawl at every batch width (DESIGN.md §10). It is
// layered as:
//
//   * the wave planner/committer (this class): selector ranking, slot
//     refill, strict slot-rank commit order, retry/backoff and the
//     re-queue/abandon degradation (OnFetchFailure), pending-drain
//     parking across budget slices, trace emission, and stop-reason
//     resolution;
//   * a pluggable FetchExecutor underneath: InlineFetchExecutor runs a
//     wave's fetches one after another on the calling thread (the
//     in-process configuration); NetFetchExecutor (src/net/) pipelines
//     them over TCP connections, the one path with round trips to
//     overlap. Executors only decide HOW a wave's fetches are issued;
//     every fetch writes its own rank-indexed result cell and the
//     commit phase consumes cells strictly by rank, so the executor
//     choice is invisible to the crawl output *by construction*.
//
// The determinism contract (proven by
// tests/crawler_parallel_differential_test.cc):
//   * batch == 1 is the serial crawl order;
//   * at any batch, output is a pure function of (seed, batch); the
//     executor, and the order it completes a wave's fetches in, affect
//     wall-clock only;
//   * batch > 1 is semantic: each wave picks its top-B frontier
//     candidates from the previous wave's knowledge (the round-limited
//     access model of Sheng et al., PAPERS.md).
//
// Checkpoint/resume: a crawl's state is a pure function of its inputs —
// the seeds, every Run() call's budgets, and every committed fetch
// result. The engine records those inputs as it goes (the fetch log),
// already in the bytes of the checkpoint's LOG section, so SaveState
// copies them. A replay (BeginReplay ... EndReplay)
// rebuilds store, selector, retry queue and trace by issuing the
// logged calls again through this same engine code, each fetch served
// from the log with no server call, so checkpoint + restore + continue
// emits the SAME trace CSV byte-for-byte as the uninterrupted run. See
// src/crawler/checkpoint.h for the file format and the whole-crawl
// orchestration (including fault-proxy state).

#ifndef DEEPCRAWL_CRAWLER_CRAWL_ENGINE_H_
#define DEEPCRAWL_CRAWLER_CRAWL_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/crawler/abort_policy.h"
#include "src/crawler/local_store.h"
#include "src/crawler/metrics.h"
#include "src/crawler/query_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/server/query_interface.h"
#include "src/util/checkpoint_io.h"
#include "src/util/status.h"

namespace deepcrawl {

class CrawlEngine;

struct CrawlOptions {
  // Stop after this many communication rounds (0 = unbounded).
  uint64_t max_rounds = 0;
  // Stop once this many distinct records were harvested (0 = crawl until
  // the frontier is exhausted). Figure 3's "reach 90% coverage" runs set
  // this to 0.9 * |DB|.
  uint64_t target_records = 0;
  // Notify the selector of saturation once this many records were
  // harvested (0 = never). Drives the §3.3 GL -> MMMI switch-over.
  uint64_t saturation_records = 0;
  // Issue queries through the site's keyword box instead of typed
  // attribute fields (§2.2 "fading schema"): the selected value's text
  // is matched by the server against every attribute, so e.g. a person
  // name harvests both acting and directing credits in one query.
  bool use_keyword_interface = false;
};

enum class StopReason {
  kFrontierExhausted,
  kRoundBudget,
  kTargetReached,
};

const char* StopReasonToString(StopReason reason);

struct CrawlResult {
  StopReason stop_reason = StopReason::kFrontierExhausted;
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t records = 0;
  CrawlTrace trace;
  // Copy of trace.resilience(), for reporting convenience.
  ResilienceCounters resilience;
  // Round-trip-time tallies from the query interface the crawl ran
  // against: measured socket RTT for a NetQueryClient, empty for an
  // in-process server. Wall-clock-derived, hence excluded from the
  // determinism contract (never serialized, never traced).
  RttCounters rtt;
  // Per-source degradation reports. Empty for a bare engine crawl; a
  // fleet's merged result carries one entry per source so partial
  // results under chaos are explicit, never silent (DESIGN.md §11).
  std::vector<SourceDegradation> source_reports;
};

// Builds the CrawlResult snapshot every stop path returns — the one
// place stop-reason resolution materializes a result.
CrawlResult MakeCrawlResult(StopReason reason, uint64_t rounds,
                            uint64_t queries, uint64_t records,
                            const CrawlTrace& trace);

// One planned page fetch of a wave, in selector-rank order. The typed
// form (rather than an opaque closure) is what lets transport-aware
// executors see a whole wave at once: the network executor pipelines
// every request of the wave over its connections before reading any
// response (DESIGN.md §13).
struct FetchRequest {
  ValueId value = kInvalidValueId;
  uint32_t page_number = 0;
  // FetchPageKeywordOf instead of FetchPage (CrawlOptions::
  // use_keyword_interface).
  bool keyword = false;
};

// Issues `request` against `server` through the query form the request
// names — the one fetch dispatch shared by every executor.
StatusOr<ResultPage> ExecuteFetch(QueryInterface& server,
                                  const FetchRequest& request);

// Executes one wave of page fetches, writing results[i] for
// requests[i]. Implementations only choose the transport/execution
// vehicle; each fetch lands in its own rank-indexed result cell, so
// execution (and completion) order is invisible to the commit phase.
class FetchExecutor {
 public:
  virtual ~FetchExecutor() = default;
  virtual void FetchWave(
      QueryInterface& server, std::span<const FetchRequest> requests,
      std::span<std::optional<StatusOr<ResultPage>>> results) = 0;
};

// Fetches in rank order on the calling thread (the in-process engine
// configuration).
class InlineFetchExecutor : public FetchExecutor {
 public:
  void FetchWave(
      QueryInterface& server, std::span<const FetchRequest> requests,
      std::span<std::optional<StatusOr<ResultPage>>> results) override;
};

struct EngineOptions {
  // Drain slots per wave (>= 1). Semantic: batch == 1 is exactly the
  // serial crawl order.
  uint32_t batch = 1;
  // Invoke `checkpoint_sink` after every N completed waves (0 = never).
  // Wave boundaries are the engine's durable points: the sink sees a
  // state from which a restored engine continues bit-identically.
  uint64_t checkpoint_every_waves = 0;
  // Called at checkpoint boundaries (typically SaveCrawlCheckpoint); a
  // non-OK return fails the crawl with that status.
  std::function<Status(const CrawlEngine&)> checkpoint_sink = nullptr;
  // When set, the engine fetches through this executor instead of its
  // own InlineFetchExecutor (a NetFetchExecutor for a TCP crawl). Must
  // outlive the engine.
  FetchExecutor* shared_executor = nullptr;
};

class CrawlEngine {
 public:
  // All referenced objects must outlive the engine. `abort_policy` may
  // be null (never abort); `retry_policy` may be null (fail the crawl on
  // the first fetch error).
  CrawlEngine(QueryInterface& server, QuerySelector& selector,
              LocalStore& store, CrawlOptions options,
              EngineOptions engine_options = EngineOptions{},
              AbortPolicy* abort_policy = nullptr,
              const RetryPolicy* retry_policy = nullptr);

  ~CrawlEngine();

  CrawlEngine(const CrawlEngine&) = delete;
  CrawlEngine& operator=(const CrawlEngine&) = delete;

  // Plants a seed attribute value; duplicate seeds are ignored.
  void AddSeed(ValueId v);
  // Every AddSeed value so far, in call order; a restored engine's are
  // the checkpoint's.
  const std::vector<ValueId>& seeds() const { return seeds_; }

  // Runs waves until a stop condition fires. May be called again to
  // continue (e.g. with a raised budget): slots interrupted by the
  // round budget stay parked and resume exactly, with no page
  // re-fetched and no record double-counted.
  StatusOr<CrawlResult> Run();
  // Run() without the result: returns only why the crawl stopped. Run()
  // copies the whole trace into its result, so a caller that runs many
  // short turns (the fleet) calls this and reads the accessors below.
  StatusOr<StopReason> RunToStop();

  // Adjusts budgets between Run() calls (0 = unbounded), enabling
  // incremental/staged crawls and resumed runs.
  void set_max_rounds(uint64_t max_rounds) {
    options_.max_rounds = max_rounds;
  }
  void set_target_records(uint64_t target_records) {
    options_.target_records = target_records;
  }

  uint64_t rounds_used() const { return rounds_used_; }
  uint64_t queries_issued() const { return queries_issued_; }
  uint64_t waves_completed() const { return waves_completed_; }
  const LocalStore& store() const { return store_; }
  const CrawlTrace& trace() const { return trace_; }
  const CrawlOptions& options() const { return options_; }
  const EngineOptions& engine_options() const { return engine_options_; }

  // --- checkpointing ---------------------------------------------------
  // Writes the construction fingerprint (CONF) and the fetch log (LOG):
  // seeds, Run() budgets and every committed fetch, each stored record's
  // values written once at its first occurrence. Any engine can be
  // saved, under any selector.
  void SaveState(CheckpointWriter& writer) const;
  // Size of the fetch log held so far, in bytes.
  size_t log_bytes() const { return log_.buffer().size(); }
  // Starts restoring state saved by SaveState into a freshly constructed
  // engine whose construction parameters (batch, keyword mode, selector
  // policy and its options, retry and abort policies) match the
  // checkpointing run: checks the CONF fingerprint and opens the LOG,
  // which `reader` must keep readable until EndReplay. Until then the
  // caller repeats the saved engine's AddSeed and Run() calls; each
  // must be the next one the log holds, and every fetch is served from
  // the log with no server call. A Run() stops where the saved one did,
  // at a wave boundary a checkpoint sink saw included.
  Status BeginReplay(CheckpointReader& reader);
  // Ends the replay: the log must be used up, at the rounds, waves and
  // records it ends with. Restores the budgets the saved engine held.
  // Returns the replay's first failure: a forged or corrupt log, or a
  // call or fetch other than the logged one.
  Status EndReplay();
  // A whole replay driven by the log itself: BeginReplay, the logged
  // seeds and Run() calls, EndReplay. On any error (from these three as
  // well) the engine may be partially populated and must be discarded;
  // never continue a crawl on it.
  Status LoadState(CheckpointReader& reader);

 private:
  // One in-flight drain: which value, which page comes next, and the
  // outcome accumulated so far. Parked across Run() calls on budget
  // expiry.
  struct Slot {
    ValueId value = kInvalidValueId;
    uint32_t next_page = 0;
    uint32_t failures = 0;
    QueryOutcome outcome;
  };

  // What a failed fetch does to its drain.
  enum class FailureAction {
    kFailCrawl,  // not retryable (or no policy): the crawl must fail
    kRetry,      // backoff charged; re-fetch the same page next wave
    kRequeue,    // drain gave up; value re-queued at the frontier tail
    kAbandon,    // drain gave up; re-queue budget exhausted, value dropped
  };

  // Checks each replayed call, and serves each committed fetch, from a
  // checkpoint's fetch log between BeginReplay and EndReplay.
  class Replay;

  // A seed or a Run() entry of the fetch log (kind kLogSeed or kLogRun),
  // as a call makes it and as a replay reads it.
  struct LogMark {
    uint8_t kind = 0;
    ValueId seed = kInvalidValueId;
    uint64_t max_rounds = 0;
    uint64_t target_records = 0;
    bool operator==(const LogMark&) const = default;
  };

  void DiscoverValue(ValueId v);
  ValueId NextValue();
  // Handles one failed fetch of `value`: bumps `failures` (the drain's
  // failed-attempt count) and the resilience tallies, charges backoff,
  // and re-queues the value when its drain gives up.
  FailureAction OnFetchFailure(const Status& failure, ValueId value,
                               uint32_t& failures);
  // Log a cut when this Run() resumes an interrupted one, then its
  // budgets when they changed.
  void LogRunEntry();
  // Makes the logged seed and Run() calls again until the log's end
  // entry; returns the first replay failure.
  Status ReplayLog();
  // Applies one fetched page to the crawl state. Clears `slot_box` when
  // the drain ended; leaves it parked for the next wave otherwise.
  // Returns a non-OK status only when the crawl must fail.
  Status CommitFetch(std::optional<Slot>& slot_box,
                     StatusOr<ResultPage> fetched);
  // Drain-finished bookkeeping shared by the completion paths.
  void FinishDrain(std::optional<Slot>& slot_box);
  void NotifySaturationOnce();
  CrawlResult MakeResult(StopReason reason) const;

  QueryInterface& server_;
  QuerySelector& selector_;
  LocalStore& store_;
  CrawlOptions options_;
  EngineOptions engine_options_;
  AbortPolicy* abort_policy_;
  const RetryPolicy* retry_policy_;
  // The wave loop fetches through `executor_`: the shared executor when
  // one was given, `inline_executor_` otherwise.
  InlineFetchExecutor inline_executor_;
  FetchExecutor* executor_;

  std::vector<char> seen_;  // value already in Lto-query or Lqueried
  bool saturation_notified_ = false;
  uint64_t rounds_used_ = 0;
  uint64_t queries_issued_ = 0;
  uint64_t waves_completed_ = 0;
  CrawlTrace trace_;
  // Values whose drain gave up, waiting at the frontier tail, and how
  // often each was already re-queued.
  std::deque<ValueId> retry_queue_;
  std::unordered_map<ValueId, uint32_t> requeue_count_;

  std::vector<std::optional<Slot>> slots_;
  // The wave currently being executed (slot indices, lowest rank
  // first) and how many of its fetches have been committed. A wave is
  // an atomic unit of the crawl order: when the round budget expires
  // mid-wave, the unfetched suffix survives across Run() calls and is
  // fetched FIRST on resume, before any refill — this is what makes a
  // budget-sliced run bit-identical to a one-shot run at any batch.
  std::vector<size_t> wave_;
  size_t wave_pos_ = 0;
  // Per-wave trace points, flushed through CrawlTrace::AddWave once per
  // wave slice (single buffered append instead of one write per page).
  std::vector<TracePoint> wave_points_;
  // Wave-assembly scratch, reused across waves (cleared, never shrunk)
  // so steady-state waves allocate nothing.
  std::vector<std::optional<StatusOr<ResultPage>>> fetch_results_;
  std::vector<FetchRequest> fetch_requests_;

  // True while the engine stands at a wave boundary whose stop checks
  // have not run yet: inside the checkpoint sink, after the sink failed,
  // or after a replay paused there. A save then ends its log with a cut:
  // the point where a Run() was interrupted before its stop checks ran.
  bool boundary_open_ = false;
  // The fetch log: the crawl's inputs, recorded always, in the entries
  // of the checkpoint's LOG section (src/crawler/checkpoint.h) up to the
  // end entry.
  CheckpointWriter log_;
  std::vector<ValueId> seeds_;
  // The last logged Run() entry (kind 0 before the first).
  LogMark last_run_;
  // Non-null only between BeginReplay and EndReplay.
  std::unique_ptr<Replay> replay_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_CRAWL_ENGINE_H_
