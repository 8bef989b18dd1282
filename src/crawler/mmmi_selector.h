// Min-Max Mutual Information query selection (MMMI, §3.3).
//
// The greedy link-based strategy favours popular values, but popularity
// ignores the *dependency* between a candidate and the queries already
// issued: co-author-style correlations mean a popular value may return
// mostly duplicate records once its frequent companions were queried.
// The paper observes this "low marginal benefit" phenomenon past ~85%
// coverage and proposes MMMI: rate each candidate q by
//
//   s(q) = max_{q_j in Lqueried} ln P(q, q_j | DBlocal)
//                                  / (P(q | DBlocal) P(q_j | DBlocal))
//
// (its maximum pointwise mutual information with any issued query, which
// "avoids bad decisions" like query optimizers do) and prefer candidates
// with the SMALLEST s — the ones least correlated with what was already
// asked. HR(q) is taken proportional to 1/s(q).
//
// Per §3.3 the crawler starts as plain greedy-link (dependency estimates
// from a small DBlocal would be noise) and switches to MMMI ordering when
// the harness signals saturation; dependency scores are recomputed in
// batch mode to bound the computational cost.
//
// Hot path: co-occurrence counts co(q, q_j) are maintained
// *incrementally* — each harvested record bumps co(v, u) for its
// (pending v, issued u) occurrence pairs, and when a query u completes,
// one backfill scan over postings(u) credits the records harvested
// before u was issued. Every (record, v, u) contribution lands exactly
// once: a record is harvested either after u completed (live path; u is
// in the issued bitmap at harvest time) or before (backfill path), and
// the bitmap guard makes the backfill fire once per value.
//
// The rescan scorer lives on as a test oracle
// (tests/reference_mmmi_selector.h); it aggregates each candidate's
// (partner, count) pairs in the same ascending-partner order, so the
// differential suite can demand byte-identical traces.
//
// Ranking (§4.4's idea: keep only the head of the queue exact). A batch
// does not rescore the pending set. Pending values sit in one ordered
// structure under an n-free key, only values whose key may have moved
// are rescored, and only the head of the structure is ranked with the
// oracle's exact floating-point expression. Why that is exact, for the
// default ranking:
//
//   * n cancels. Inside the clamp the score is (f+1)·exp(-s) = K/n with
//     K(v) = (f_v+1)·min_u f_v·f_u/co(v,u). The clamp never binds: a
//     pmi is ln of co·n/(f_v·f_u) with co <= f_v·f_u, so |s| stays
//     below ln(n·w²) for records of width w — far below 60.
//   * The -inf tier. A value with f = 0 or no issued partner has
//     s = -inf; its clamped score (f+1)·e^60 outranks every finite one
//     and is ordered by f alone.
//   * A signature fixes the double. The oracle divides exact integers
//     (co·n and f_v·f_u stay below 2^53), and division is correctly
//     rounded, so pmi_u = ln(round(n·co_u/(f_v·f_u))). Assuming std::log
//     is monotone, max_u pmi_u = ln(round(n·co*/(f_v·f_u*))) for the
//     argmax partner u*. So values with equal signature
//     (f_v, co*/f_u* as a reduced fraction) get bit-identical scores at
//     every n; one exact evaluation serves a whole signature group.
//   * Band margin. Keys carry a few ulps of rounding, the oracle's
//     expression a few more, far below 1e-9 relative. So once a batch's
//     worth of members is gathered, a group whose key is below
//     (1 - 1e-9)·K of the batch_size-th member cannot reach the batch,
//     and the walk stops there.
//   * Dirty set. A key moves only with f_v, v's own row, or f_u of an
//     issued partner. Values are marked dirty when they appear in a
//     harvested record, are the target of a Bump, or enter the frontier
//     (and all pending values at saturation or LoadState). f_u of an
//     issued u moves only after an incomplete drain (abandonment, a
//     §3.4 abort, a result limit); such a u marks the pending values of
//     its local records dirty, so no reverse index is needed.
//   * One entry per value. A rescore erases the value's old entry before
//     inserting the new one, so a key that returns to an earlier value
//     cannot leave a stale twin behind (a lazy heap would need per-value
//     version stamps for that).
//
// kPureDependency uses the key exp(-s') = f_v·f_u*/co* (ascending s is
// descending exp(-s')), then degree. kWeightedDependency's mean folds
// the whole row, so each of its values is a group of one, keyed by
// (f+1)·exp(-mean_u ln(co/(f_v·f_u))); its summed rounding grows with
// row length, so its band takes a wider 1e-6 margin. The structure is
// derived state: checkpoints do not carry it, LoadState rebuilds it.
// See DESIGN.md §9.

#ifndef DEEPCRAWL_CRAWLER_MMMI_SELECTOR_H_
#define DEEPCRAWL_CRAWLER_MMMI_SELECTOR_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/query_selector.h"
#include "src/util/chunked_arena.h"

namespace deepcrawl {

// How the dependency score is folded into the marginal-phase ranking.
enum class MmmiRanking {
  // Literal §3.3 text: sort Lto-query ascending by s(q) alone
  // (HR(q) taken proportional to 1/s(q)).
  kPureDependency,
  // §3.3 also states MMMI "is used together with the greedy link-based
  // approach": rank by degree(q) * exp(-s(q)) descending, i.e. the
  // greedy popularity estimate discounted by the dependency penalty
  // (exp(-s) = min_j P(q)P(q_j)/P(q,q_j), an independence discount).
  // This is the default: on Zipf-distributed databases the pure ordering
  // ignores query productivity and loses to plain greedy (the ablation
  // bench quantifies this).
  kDegreeDiscount,
  // §3.3 explicitly leaves open "whether max() is the best function to
  // capture the correlation ... (e.g. the linear weighted function can
  // be a good alternative)": score by the co-occurrence-weighted MEAN of
  // the pairwise PMIs instead of their max, then apply the same degree
  // discount. Less conservative than max (one bad pairing no longer
  // vetoes a candidate); compared in bench_mmmi_ablation.
  kWeightedDependency,
};

struct MmmiOptions {
  // Queries served from one dependency ranking before re-sorting (§3.3's
  // batch-mode recomputation).
  uint32_t batch_size = 10;
  MmmiRanking ranking = MmmiRanking::kDegreeDiscount;
};

class MmmiSelector : public GreedyLinkSelector {
 public:
  MmmiSelector(const LocalStore& store, MmmiOptions options = MmmiOptions{});

  void OnRecordHarvested(uint32_t slot) override;
  void OnQueryCompleted(const QueryOutcome& outcome) override;
  void OnSaturation() override;
  ValueId SelectNext() override;
  std::string_view name() const override {
    return "greedy-link+mmmi";
  }

  bool saturated() const { return saturated_; }

  // Checkpointing: base (greedy) state plus the saturation flag, issued
  // bitmap, batch queue, and the incremental co-occurrence rows (each
  // row restored in its sorted-ascending order). The MmmiOptions
  // fingerprint is verified on load. The ranking structure is derived
  // state: LoadState rebuilds it from the restored rows.
  Status SaveState(CheckpointWriter& writer) const override;
  Status LoadState(CheckpointReader& reader, ValueId value_bound) override;

  // Dependency score s(q) of a candidate against the issued queries,
  // from the incremental co-occurrence counters — so it only credits
  // records the selector observed while q was pending. Exposed for
  // tests. Returns -infinity when q co-occurs with no issued query.
  double DependencyScore(ValueId q) const {
    return CachedDependency(q).max_pmi;
  }

 private:
  struct Dependency {
    double max_pmi;        // s(q); -inf when no co-occurrence
    double weighted_pmi;   // co-weighted mean PMI; -inf when none
  };
  // Folds q's cached (partner, co) row, sorted ascending by partner id
  // (the order the test oracle's rescan folds in too), into a Dependency.
  Dependency CachedDependency(ValueId q) const;

  // A pending value's place in the ranking structure. Values with equal
  // (tier, signature) get bit-identical oracle scores (see the header
  // comment), so they form one group ordered by the oracle's own
  // tie-breaks.
  struct RankKey {
    double key;         // n-free score; higher ranks first
    uint64_t degree;    // kPureDependency's tie-break; 0 otherwise
    uint32_t sig_freq;  // signature: f_v, and the argmax partner's
    uint32_t sig_num;   // co*/f_u* as a reduced fraction
    uint32_t sig_den;
    ValueId value;
    uint8_t tier;       // 0: s = -inf; 1: finite s
  };
  // (tier, key desc, signature, degree desc, value).
  struct RankOrder {
    bool operator()(const RankKey& a, const RankKey& b) const;
  };
  using RankSet = std::set<RankKey, RankOrder>;
  struct RankSlot {
    RankSet::iterator pos;  // valid while ranked
    bool ranked = false;
    bool dirty = false;     // rescore at the next batch
    bool moved = false;     // issued, and its frequency moved
  };
  struct Scored {
    double dependency;
    uint64_t degree;
    double combined;  // (f+1) * exp(-penalty); unused by kPureDependency
    ValueId value;
  };

  bool IsIssued(ValueId u) const {
    return u < queried_bitmap_.size() && queried_bitmap_[u] != 0;
  }
  void OnFrontierInsert(ValueId v) override;
  RankSlot& Slot(ValueId v);
  void Bump(ValueId v, ValueId u);
  void MarkDirty(ValueId v);
  void MarkAllPendingDirty();
  RankKey ComputeKey(ValueId v) const;
  // The oracle's exact score of v at the current n.
  Scored ScoreExact(ValueId v) const;
  void Rescore(ValueId v);
  // Rescores what changed, gathers the head band into scored_, and
  // queues its top batch_size.
  void RecomputeBatch();

  MmmiOptions options_;
  bool saturated_ = false;
  std::vector<char> queried_bitmap_;
  std::deque<ValueId> batch_queue_;

  // Incremental co-occurrence state: row v holds (issued partner u,
  // co(v, u)) pairs kept sorted ascending by u — Bump does a binary
  // search + in-place increment (or a sorted insert for a new partner),
  // and CachedDependency aggregates the row directly with no copy, hash
  // probe, or per-call sort.
  ChunkedArena<std::pair<ValueId, uint32_t>> partners_;

  // Ranking state, maintained only once saturated. Every pending value
  // has exactly one entry, current after the dirty values are rescored;
  // entries of values that left the frontier are erased when a walk
  // meets them.
  RankSet ranked_;
  std::vector<RankSlot> slots_;  // by value
  std::vector<ValueId> dirty_;
  std::vector<ValueId> moved_;

  // Scratch reused across events/batches (cleared, never shrunk).
  std::vector<ValueId> issued_in_record_;
  std::vector<Scored> scored_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_MMMI_SELECTOR_H_
