// Heuristic-based query abortion (§3.4).
//
// A query that matched many records costs many communication rounds to
// drain; when most of those records are already in DBlocal the marginal
// harvest per round is tiny. §3.4 describes two heuristics, both
// implemented here:
//
//  1. Count-based: most sources report the total match count on the
//     first page. Knowing the count and the local duplicates, the
//     crawler can bound the harvest rate of the REMAINING pages and
//     abort when it falls below a threshold.
//  2. Duplicate-ratio: without a count, abort when the first few pages
//     return mostly duplicates.
//
// The policy is consulted after every fetched page; returning false
// abandons the query's remaining pages (already-harvested records are
// kept — result extraction is never rolled back).

#ifndef DEEPCRAWL_CRAWLER_ABORT_POLICY_H_
#define DEEPCRAWL_CRAWLER_ABORT_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

namespace deepcrawl {

// Progress of the currently-draining query, updated after each page.
struct QueryProgress {
  std::optional<uint32_t> total_matches;  // server-reported, if any
  uint32_t retrievable = 0;   // matches actually fetchable (limit-clamped)
  uint32_t page_size = 0;     // k
  uint32_t pages_fetched = 0;
  uint32_t records_returned = 0;
  uint32_t new_records = 0;   // records that were not in DBlocal
  bool has_more = false;
};

class AbortPolicy {
 public:
  virtual ~AbortPolicy() = default;

  // Returns true to fetch the next page, false to abort the query.
  // Only consulted when progress.has_more.
  virtual bool ShouldContinue(const QueryProgress& progress) = 0;

  virtual std::string_view name() const = 0;
};

// Count-based heuristic: abort when the best-case harvest rate of the
// remaining pages (all unseen-so-far matches turn out new) is below
// `min_harvest_rate` new records per round.
class CountBasedAbort : public AbortPolicy {
 public:
  explicit CountBasedAbort(double min_harvest_rate);

  bool ShouldContinue(const QueryProgress& progress) override;
  std::string_view name() const override { return "count-abort"; }

 private:
  double min_harvest_rate_;
};

// Duplicate-ratio heuristic: after at least `min_pages` pages, abort when
// the fraction of duplicates among returned records exceeds
// `max_duplicate_fraction`.
class DuplicateRatioAbort : public AbortPolicy {
 public:
  DuplicateRatioAbort(uint32_t min_pages, double max_duplicate_fraction);

  bool ShouldContinue(const QueryProgress& progress) override;
  std::string_view name() const override { return "dup-ratio-abort"; }

 private:
  uint32_t min_pages_;
  double max_duplicate_fraction_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_ABORT_POLICY_H_
