// Competitive-optimal query selection (Sheng et al., "Optimal
// Algorithms for Crawling a Hidden Database in the Web", PVLDB 2012;
// PAPERS.md, arXiv 1208.0075).
//
// The paper's GL/MMMI/DM selectors are greedy heuristics with no
// worst-case guarantee: adversarial databases exist on which degree
// ranking pays ω(OPT) queries (src/datagen/adversarial_workload.h
// constructs them). Sheng et al. study the same hidden-database model —
// each query returns at most `result_limit` matching records — and give
// algorithms whose total query cost is within a constant factor of the
// information-theoretic optimum OPT >= ceil(n / result_limit), by
// descending a hierarchy of nested ranges over an *ordered* interface
// attribute instead of ranking harvested values.
//
// Adaptation to this repo's equality-query model: the ordered attribute
// is materialized as interval values `r<lo>-<hi>` over rank buckets
// (every record carries its full dyadic ancestor chain), so "query the
// range [lo, hi]" is an ordinary single-attribute equality query and
// the unmodified WebDbServer/CrawlEngine substrate applies. The
// `QueryHierarchy` is parsed once from the target catalog — this is the
// interface knowledge Sheng's model grants the crawler (it knows the
// searchable rank domain a priori), exactly as the oracle/domain
// selectors are granted their side tables.
//
// Two variants, mirroring the paper's count/no-count split:
//
//   * opt-rank (`OptimalMode::kRank`): assumes the server reports total
//     match counts. A node overflows when count > result_limit; the
//     descent then broadens to its children, RIGHT child first —
//     retrieval is lowest-rank-first, so the parent's retrieved prefix
//     covers the left child, and by the time the left sibling is
//     popped, count arithmetic (implied count == records already held
//     locally) often proves it fully covered and SKIPS the query.
//   * opt-threshold (`OptimalMode::kThreshold`): count-free. A node is
//     treated as overflowing whenever it returned result_limit records
//     (the threshold test) — it may cost one extra level of descent on
//     exactly-full nodes but needs nothing beyond the records
//     themselves.
//
// Values outside the hierarchy (discovered from result pages the usual
// way) fall back to the inherited greedy-link frontier, so the selector
// degrades gracefully on targets with no rank attribute and can drain
// stragglers after the descent completes. Degraded/aborted drains are
// conservatively treated as overflowing, so records lost to faults are
// re-covered by the children — the competitive property suite proves
// the bound holds under the flaky fault profile too.
//
// Guarantee (proven empirically by
// tests/crawler_optimal_competitive_property_test.cc): on instances
// whose buckets hold at most result_limit records, every hierarchy node
// is queried at most once, so cost <= 2B - 1 < 2 * OPT when OPT = B
// buckets — while greedy degree ranking pays Θ(decoys) = ω(OPT) on the
// adversarial family.

#ifndef DEEPCRAWL_CRAWLER_OPTIMAL_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_OPTIMAL_SELECTOR_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string_view>
#include <vector>

#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/relation/types.h"
#include "src/relation/value_catalog.h"
#include "src/util/status.h"

namespace deepcrawl {

// Parses `r<lo>-<hi>` interval texts on one attribute into a containment
// forest. `lo`/`hi` are inclusive bucket indices; a value is a child of
// the tightest interval strictly containing it. Intervals must nest
// (partial overlap is rejected); catalog values on the attribute that do
// not parse as intervals are simply not part of the hierarchy.
class QueryHierarchy {
 public:
  static constexpr uint32_t kNoNode = UINT32_MAX;

  struct Node {
    ValueId value = kInvalidValueId;
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint32_t parent = kNoNode;
    // Children sorted ascending by lo (left to right).
    std::vector<uint32_t> children;
  };

  QueryHierarchy() = default;

  // Builds the hierarchy from every parseable interval value of
  // `rank_attribute`. An invalid attribute id (or one with no interval
  // values) yields an empty hierarchy — the selector then behaves as
  // plain greedy-link. Overlapping (non-nested) intervals are an error.
  static StatusOr<QueryHierarchy> FromCatalog(const ValueCatalog& catalog,
                                              AttributeId rank_attribute);

  // Parses one `r<lo>-<hi>` text. Returns false when `text` is not an
  // interval (exposed for datagen/tests).
  static bool ParseInterval(std::string_view text, uint32_t& lo,
                            uint32_t& hi);

  bool empty() const { return nodes_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t idx) const { return nodes_[idx]; }
  std::span<const uint32_t> roots() const { return roots_; }

  // Node index holding `v`, or kNoNode when `v` is not a hierarchy value.
  uint32_t NodeOf(ValueId v) const {
    return v < node_of_.size() ? node_of_[v] : kNoNode;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> node_of_;  // by ValueId; kNoNode = not in forest
};

enum class OptimalMode : uint8_t {
  kRank,       // count-based overflow + count-arithmetic skipping
  kThreshold,  // count-free threshold test, broad-first
};

struct OptimalSelectorOptions {
  OptimalMode mode = OptimalMode::kRank;
  // Must mirror ServerOptions::result_limit (0 = unlimited: nothing ever
  // overflows and the root query retrieves the whole database).
  uint32_t result_limit = 0;
};

class RankOptimalSelector : public GreedyLinkSelector {
 public:
  // `store` as for GreedyLinkSelector; the hierarchy is owned by the
  // selector (copy it per crawl, like the per-run LocalStore).
  RankOptimalSelector(const LocalStore& store, QueryHierarchy hierarchy,
                      OptimalSelectorOptions options = {});

  void OnValueDiscovered(ValueId v) override;
  void OnQueryCompleted(const QueryOutcome& outcome) override;
  ValueId SelectNext() override;
  std::string_view name() const override {
    return options_.mode == OptimalMode::kRank ? "opt-rank"
                                               : "opt-threshold";
  }
  // The descent issues hierarchy values the crawl may not have seen on
  // any result page yet (interface knowledge); the engine marks them
  // seen at issue time.
  bool MaySelectUndiscovered() const override { return true; }

  const QueryHierarchy& hierarchy() const { return hierarchy_; }

  // Diagnostics for tests and bench_optimal.
  uint64_t descent_queries() const { return descended_; }
  uint64_t skipped_by_count() const { return skipped_; }
  uint64_t resolved_nodes() const { return resolved_; }
  uint64_t overflowed_nodes() const { return overflowed_; }
  uint64_t fallback_selects() const { return fallback_selects_; }

 private:
  enum class NodeStatus : uint8_t {
    kUnvisited = 0,  // not yet reached by the descent
    kQueued = 1,     // waiting in the descent queue
    kIssued = 2,     // handed to the engine, drain in flight
    kResolved = 3,   // query completed
    kSkipped = 4,    // proven fully covered by count arithmetic
  };

  // True when `outcome` proves (or cannot rule out) records beyond the
  // retrievable window, so the node's children must be queried.
  bool Overflowed(const QueryOutcome& outcome) const;
  // kRank count arithmetic: parent and sibling counts imply this node's
  // count; when the implied count is zero or already fully held in the
  // local store, the query is provably redundant. Records the implied
  // count on success.
  bool TrySkip(uint32_t node_idx);

  QueryHierarchy hierarchy_;
  OptimalSelectorOptions options_;
  std::vector<NodeStatus> status_;    // by node index
  std::vector<uint8_t> has_count_;    // by node index
  std::vector<uint32_t> count_;       // by node index; valid iff has_count_
  // Broad-first descent queue of node indices; children are enqueued
  // right-before-left so count arithmetic can prove left siblings
  // redundant (see file comment).
  std::deque<uint32_t> descent_;
  uint64_t descended_ = 0;
  uint64_t skipped_ = 0;
  uint64_t resolved_ = 0;
  uint64_t overflowed_ = 0;
  uint64_t fallback_selects_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_OPTIMAL_SELECTOR_H_
