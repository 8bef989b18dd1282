// ReferenceMmmiSelector: the pre-optimization MMMI scorer, kept as a
// test oracle for MmmiSelector (src/crawler/mmmi_selector.h).
//
// It keeps no co-occurrence state: every batch rescans each candidate's
// local postings × record values to count co-occurrences with the
// issued queries — the obvious reading of §3.3's s(q) over DBlocal.
// MmmiSelector's incremental counters and ordered ranking structure
// must yield the same batches in the same order, hence byte-identical
// crawl traces, under every MmmiRanking and batch size. Before
// saturation it is plain greedy: the rescan of
// tests/reference_greedy_selector.h, not the heap under test.

#ifndef DEEPCRAWL_TESTS_REFERENCE_MMMI_SELECTOR_H_
#define DEEPCRAWL_TESTS_REFERENCE_MMMI_SELECTOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "tests/reference_greedy_selector.h"

namespace deepcrawl {

class ReferenceMmmiSelector : public ReferenceGreedySelector {
 public:
  explicit ReferenceMmmiSelector(const LocalStore& store,
                                 MmmiOptions options = MmmiOptions{})
      : ReferenceGreedySelector(store), options_(options) {}

  void OnQueryCompleted(const QueryOutcome& outcome) override {
    ValueId v = outcome.value;
    if (v >= queried_bitmap_.size()) {
      queried_bitmap_.resize(static_cast<size_t>(v) + 1, 0);
    }
    queried_bitmap_[v] = 1;
  }
  void OnSaturation() override { saturated_ = true; }
  std::string_view name() const override { return "greedy-link+mmmi"; }

  ValueId SelectNext() override {
    if (!saturated_) return ReferenceGreedySelector::SelectNext();
    for (;;) {
      if (batch_queue_.empty()) {
        RecomputeBatch();
        if (batch_queue_.empty()) return kInvalidValueId;
      }
      ValueId v = batch_queue_.front();
      batch_queue_.pop_front();
      if (!IsPending(v)) continue;  // consumed by an earlier pop
      MarkNotPending(v);
      return v;
    }
  }

 private:
  struct Dependency {
    double max_pmi;       // s(q); -inf when no co-occurrence
    double weighted_pmi;  // co-weighted mean PMI; -inf when none
  };
  struct Scored {
    double dependency;
    uint64_t degree;
    double combined;
    ValueId value;
  };

  // s(q) = max over issued u of ln(co(q, u) n / (num(q) num(u))), and
  // the co-weighted mean of the same PMIs, from one postings(q) ×
  // record-values scan; -inf when q co-occurs with no issued query.
  // Pairs are folded in ascending partner order, the order MmmiSelector
  // keeps its rows in.
  Dependency ComputeDependency(ValueId q) const {
    const LocalStore& db = store();
    std::unordered_map<ValueId, uint32_t> co_counts;
    for (uint32_t slot : db.LocalPostings(q)) {
      for (ValueId u : db.RecordValues(slot)) {
        bool issued = u < queried_bitmap_.size() && queried_bitmap_[u];
        if (u != q && issued) ++co_counts[u];
      }
    }
    std::vector<std::pair<ValueId, uint32_t>> cos(co_counts.begin(),
                                                  co_counts.end());
    std::sort(cos.begin(), cos.end());
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    Dependency result{kNegInf, kNegInf};
    double n = static_cast<double>(db.num_records());
    double freq_q = static_cast<double>(db.LocalFrequency(q));
    if (n == 0 || freq_q == 0) return result;
    double weighted_sum = 0.0;
    double weight_total = 0.0;
    for (const auto& [u, co] : cos) {
      double freq_u = static_cast<double>(db.LocalFrequency(u));
      double pmi = std::log(static_cast<double>(co) * n / (freq_q * freq_u));
      result.max_pmi = std::max(result.max_pmi, pmi);
      weighted_sum += static_cast<double>(co) * pmi;
      weight_total += static_cast<double>(co);
    }
    if (weight_total > 0.0) result.weighted_pmi = weighted_sum / weight_total;
    return result;
  }

  // Scores every pending candidate and queues the top batch_size under
  // the configured ranking.
  void RecomputeBatch() {
    std::span<const ValueId> candidates = PendingValues();
    if (candidates.empty()) return;
    std::vector<Scored> scored;
    scored.reserve(candidates.size());
    for (ValueId v : candidates) {
      Dependency dep = ComputeDependency(v);
      double penalty = options_.ranking == MmmiRanking::kWeightedDependency
                           ? dep.weighted_pmi
                           : dep.max_pmi;
      double discount = std::exp(std::clamp(-penalty, -60.0, 60.0));
      double magnitude =
          static_cast<double>(store().LocalFrequency(v)) + 1.0;
      scored.push_back(Scored{dep.max_pmi, store().LocalDegree(v),
                              magnitude * discount, v});
    }
    size_t take = std::min<size_t>(options_.batch_size, scored.size());
    auto middle = scored.begin() + static_cast<ptrdiff_t>(take);
    if (options_.ranking == MmmiRanking::kPureDependency) {
      // Ascending dependency, then higher degree, then smaller id.
      std::partial_sort(scored.begin(), middle, scored.end(),
                        [](const Scored& a, const Scored& b) {
                          if (a.dependency != b.dependency) {
                            return a.dependency < b.dependency;
                          }
                          if (a.degree != b.degree) {
                            return a.degree > b.degree;
                          }
                          return a.value < b.value;
                        });
    } else {
      // Dependency-discounted popularity, best first.
      std::partial_sort(scored.begin(), middle, scored.end(),
                        [](const Scored& a, const Scored& b) {
                          if (a.combined != b.combined) {
                            return a.combined > b.combined;
                          }
                          return a.value < b.value;
                        });
    }
    batch_queue_.clear();
    for (auto it = scored.begin(); it != middle; ++it) {
      batch_queue_.push_back(it->value);
    }
  }

  MmmiOptions options_;
  bool saturated_ = false;
  std::vector<char> queried_bitmap_;
  std::deque<ValueId> batch_queue_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_REFERENCE_MMMI_SELECTOR_H_
