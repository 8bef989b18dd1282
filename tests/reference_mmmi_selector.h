// ReferenceMmmiSelector: the pre-optimization MMMI scorer, kept as a
// test oracle for MmmiSelector (src/crawler/mmmi_selector.h).
//
// It keeps no co-occurrence state: every batch rescans each candidate's
// local postings × record values to count co-occurrences with the
// issued queries — the obvious reading of §3.3's s(q) over DBlocal.
// MmmiSelector's incremental counters must yield the same batches in
// the same order, hence byte-identical crawl traces. Only the default
// options (MmmiRanking::kDegreeDiscount, batch 10) are modelled.

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

#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"

namespace deepcrawl {

class ReferenceMmmiSelector : public GreedyLinkSelector {
 public:
  static constexpr size_t kBatchSize = 10;

  explicit ReferenceMmmiSelector(const LocalStore& store)
      : GreedyLinkSelector(store) {}

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
    if (!saturated_) return GreedyLinkSelector::SelectNext();
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
  // s(q) = max over issued u of ln(co(q, u) n / (num(q) num(u))), from
  // one postings(q) × record-values scan; -inf when q co-occurs with no
  // issued query. Pairs are folded in ascending partner order, the
  // order MmmiSelector keeps its rows in.
  double ComputeDependency(ValueId q) const {
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
    double max_pmi = -std::numeric_limits<double>::infinity();
    double n = static_cast<double>(db.num_records());
    double freq_q = static_cast<double>(db.LocalFrequency(q));
    if (n == 0 || freq_q == 0) return max_pmi;
    for (const auto& [u, co] : cos) {
      double freq_u = static_cast<double>(db.LocalFrequency(u));
      double pmi = std::log(static_cast<double>(co) * n / (freq_q * freq_u));
      max_pmi = std::max(max_pmi, pmi);
    }
    return max_pmi;
  }

  // Ranks every pending candidate by (num(q) + 1) * exp(-s(q)), best
  // first, ties to the smaller id, and queues the top kBatchSize.
  void RecomputeBatch() {
    std::span<const ValueId> candidates = PendingValues();
    if (candidates.empty()) return;
    std::vector<std::pair<double, ValueId>> scored;
    scored.reserve(candidates.size());
    for (ValueId v : candidates) {
      double s = ComputeDependency(v);
      double discount = std::exp(std::clamp(-s, -60.0, 60.0));
      double magnitude =
          static_cast<double>(store().LocalFrequency(v)) + 1.0;
      scored.emplace_back(magnitude * discount, v);
    }
    size_t take = std::min(kBatchSize, scored.size());
    auto middle = scored.begin() + static_cast<ptrdiff_t>(take);
    std::partial_sort(scored.begin(), middle, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    batch_queue_.clear();
    for (auto it = scored.begin(); it != middle; ++it) {
      batch_queue_.push_back(it->second);
    }
  }

  bool saturated_ = false;
  std::vector<char> queried_bitmap_;
  std::deque<ValueId> batch_queue_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_TESTS_REFERENCE_MMMI_SELECTOR_H_
