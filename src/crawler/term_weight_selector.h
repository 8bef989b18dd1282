// Term-weighted query selection for textual databases.
//
// After Gupta & Bhatia ("A Novel Term Weighing Scheme Towards Efficient
// Crawl of Textual Databases"): candidate keywords are ranked by a
// TF·IDF-style weight computed over the documents harvested so far.
// With term bags (each document lists a term once per field), term
// frequency equals document frequency, so the weight of a candidate
// term t over the local database DBlocal of N documents reduces to
//
//   w(t) = df(t) · ln((N + 1) / df(t))
//
// which is unimodal in df: it vanishes both for rare terms (tiny result
// sets — one page fetched, little gained) and for near-ubiquitous terms
// (huge overlap with what is already harvested — ln → 0), and peaks at
// df = (N+1)/e. That is exactly the "promising middle" a keyword
// crawler wants: productive terms whose postings are not yet mostly
// duplicates.
//
// Statistics are read incrementally from the LocalStore
// (LocalFrequency/num_records — the store already maintains them for
// MMMI's arena rows), so scoring a candidate is O(1) and a batch
// re-rank is one pass over the frontier. Like MmmiSelector, the
// selector serves `batch_size` queries from one ranking before
// re-sorting (§3.3's batch-mode recomputation idiom).

#ifndef DEEPCRAWL_CRAWLER_TERM_WEIGHT_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_TERM_WEIGHT_SELECTOR_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"

namespace deepcrawl {

struct TermWeightOptions {
  // Queries served from one ranking before re-sorting.
  uint32_t batch_size = 10;
};

class TermWeightSelector : public FrontierSelector {
 public:
  explicit TermWeightSelector(const LocalStore& store,
                              TermWeightOptions options = TermWeightOptions{});

  ValueId SelectNext() override;
  std::string_view name() const override { return "term-weight"; }

  // The ranking weight of candidate `v` on the current DBlocal
  // (exposed for tests).
  double Weight(ValueId v) const;

 private:
  void RecomputeBatch();

  TermWeightOptions options_;
  std::deque<ValueId> batch_queue_;

  // Scratch reused across batches (cleared, never shrunk).
  struct Scored {
    double weight;
    uint64_t df;
    ValueId value;
  };
  std::vector<Scored> scored_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_TERM_WEIGHT_SELECTOR_H_
