// QuerySelector: the policy interface at the heart of the paper.
//
// §2.5 describes the Web database crawler as Query Selector + Database
// Prober + Result Extractor around three data structures (Lto-query,
// Lqueried, statistics table). CrawlEngine owns the prober/
// extractor loop and the queried/pending bookkeeping; concrete
// QuerySelector implementations own the ordering of Lto-query — which is
// precisely where the paper's techniques differ.
//
// Lifecycle per crawl step:
//   1. The engine calls SelectNext() -> candidate value (or kInvalidValueId
//      when the frontier is exhausted).
//   2. The engine probes the server page by page; each *new* record is
//      added to the LocalStore and reported via OnRecordHarvested(); each value
//      never seen before is reported via OnValueDiscovered() (it entered
//      Lto-query).
//   3. The engine reports OnQueryCompleted() with the query's outcome; the
//      value has moved to Lqueried.
//
// Selectors read shared statistics from the LocalStore (passed at
// construction) instead of duplicating them.

#ifndef DEEPCRAWL_CRAWLER_QUERY_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_QUERY_SELECTOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/relation/types.h"
#include "src/util/status.h"

namespace deepcrawl {

class CheckpointReader;
class CheckpointWriter;
class LocalStore;

// Summary of one completed query, fed back to the selector.
struct QueryOutcome {
  ValueId value = kInvalidValueId;
  // Total matches reported by the server, when it reports counts.
  std::optional<uint32_t> total_matches;
  uint32_t pages_fetched = 0;
  uint32_t records_returned = 0;
  uint32_t new_records = 0;
  bool aborted = false;  // stopped early by the abort policy
  // Transient fetch failures survived while draining this query (each
  // cost a communication round; see retry_policy.h).
  uint32_t fetch_failures = 0;
  // True when pages were lost to failures: the drain gave up after its
  // retry budget and the value was re-queued or abandoned.
  bool degraded = false;
};

class QuerySelector {
 public:
  virtual ~QuerySelector() = default;

  // `v` entered Lto-query (first sighting, not yet queried).
  virtual void OnValueDiscovered(ValueId v) = 0;

  // A previously-unseen record was appended to the LocalStore; `slot` is
  // its index there. Called after every value of the record has been
  // processed by OnValueDiscovered.
  virtual void OnRecordHarvested(uint32_t slot) { (void)slot; }

  // The query on outcome.value finished; the value is now in Lqueried.
  virtual void OnQueryCompleted(const QueryOutcome& outcome) {
    (void)outcome;
  }

  // The harness detected crawl saturation (§3.3: coverage passed the
  // switch-over threshold); selectors may change strategy. Called at
  // most once.
  virtual void OnSaturation() {}

  // Another selector sharing this crawl's event stream consumed `v`
  // (issued it as a query). The callee must drop v from its own
  // frontier so it never re-selects it. Only meta-policies
  // (AdaptiveSelector) call this — the engine itself removes values via
  // SelectNext. Default: no-op, for selectors without a frontier.
  virtual void OnValueTaken(ValueId v) { (void)v; }

  // Returns the next value to query and removes it from the selector's
  // frontier, or kInvalidValueId when no candidate remains.
  virtual ValueId SelectNext() = 0;

  // Policy name for reports, e.g. "greedy-link".
  virtual std::string_view name() const = 0;

  // True when SelectNext may return a value the crawl has not seen on
  // any result page yet (interface-driven selection, e.g. the Sheng et
  // al. rank hierarchy of optimal_selector.h). The engine then marks
  // such values seen at issue time, so a later sighting on a page does
  // not announce them again. Frontier-driven selectors keep the
  // default: the engine's discovery path stays byte-identical for them.
  virtual bool MaySelectUndiscovered() const { return false; }

  // Unused by the crawl: checkpoints replay the engine's fetch log
  // (src/crawler/checkpoint.h), which rebuilds every selector through its
  // event callbacks, so no selector serializes itself. These two remain
  // only because the benchmark's TimedSelector (crawlbench/tracing.h)
  // overrides and forwards them; they go with its next change.
  virtual Status SaveState(CheckpointWriter& writer) const {
    (void)writer;
    return Status::FailedPrecondition(
        std::string(name()) + " selector does not support checkpointing");
  }
  virtual Status LoadState(CheckpointReader& reader, ValueId value_bound) {
    (void)reader;
    (void)value_bound;
    return Status::FailedPrecondition(
        std::string(name()) + " selector does not support checkpointing");
  }
};

// Shared frontier machinery for statistics-driven selectors.
//
// GreedyLinkSelector, MmmiSelector, the optimal-selector family, and
// TermWeightSelector all need the same candidate surface: the Lto-query
// set as a compact swap-erase vector with a per-value position index
// (O(1) insert/remove/membership, and PendingValues() as a span instead
// of an O(value-space) bitmap scan per ranking batch), plus the shared
// LocalStore they read statistics from. Each of them used to carry its
// own copy; this base holds it once. Scoring stays in the derived
// classes — that is precisely where the paper's techniques differ.
class FrontierSelector : public QuerySelector {
 public:
  // `store` must outlive the selector and be the store the crawl feeds;
  // candidate statistics are read from it.
  explicit FrontierSelector(const LocalStore& store);

  void OnValueDiscovered(ValueId v) override;
  void OnValueTaken(ValueId v) override;

  size_t frontier_size() const { return frontier_.size(); }

 protected:
  static constexpr uint32_t kNoPosition = UINT32_MAX;

  bool IsPending(ValueId v) const {
    return v < frontier_pos_.size() && frontier_pos_[v] != kNoPosition;
  }
  void MarkNotPending(ValueId v) {
    uint32_t pos = frontier_pos_[v];
    ValueId moved = frontier_.back();
    frontier_[pos] = moved;
    frontier_pos_[moved] = pos;
    frontier_.pop_back();
    frontier_pos_[v] = kNoPosition;
  }

  // All values currently in Lto-query, in frontier insertion order
  // (swap-erase permuted). Invalidated by the next selector event.
  std::span<const ValueId> PendingValues() const { return frontier_; }

  const LocalStore& store() const { return store_; }

  // Grows the position index to cover `v`.
  void EnsureFrontierCapacity(ValueId v);

  // Called by OnValueDiscovered after `v` entered the frontier; derived
  // selectors hook their per-candidate bookkeeping (heap pushes, weight
  // tables) here instead of overriding OnValueDiscovered.
  virtual void OnFrontierInsert(ValueId v) { (void)v; }

 private:
  const LocalStore& store_;
  std::vector<ValueId> frontier_;
  std::vector<uint32_t> frontier_pos_;  // by value; kNoPosition = absent
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_QUERY_SELECTOR_H_
