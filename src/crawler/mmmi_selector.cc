#include "src/crawler/mmmi_selector.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>

#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"

namespace deepcrawl {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Relative key gap past which the oracle's rounding cannot reorder two
// groups (see the header comment). The weighted mean sums one rounded
// log per row entry, so its keys get a wider margin.
constexpr double kBandMargin = 1e-9;
constexpr double kWeightedBandMargin = 1e-6;

}  // namespace

bool MmmiSelector::RankOrder::operator()(const RankKey& a,
                                         const RankKey& b) const {
  if (a.tier != b.tier) return a.tier < b.tier;
  if (a.key != b.key) return a.key > b.key;
  if (a.sig_freq != b.sig_freq) return a.sig_freq < b.sig_freq;
  if (a.sig_num != b.sig_num) return a.sig_num < b.sig_num;
  if (a.sig_den != b.sig_den) return a.sig_den < b.sig_den;
  if (a.degree != b.degree) return a.degree > b.degree;
  return a.value < b.value;
}

MmmiSelector::MmmiSelector(const LocalStore& store, MmmiOptions options)
    : GreedyLinkSelector(store), options_(options) {
  DEEPCRAWL_CHECK_GT(options_.batch_size, 0u);
}

MmmiSelector::RankSlot& MmmiSelector::Slot(ValueId v) {
  if (v >= slots_.size()) slots_.resize(static_cast<size_t>(v) + 1);
  return slots_[v];
}

void MmmiSelector::MarkDirty(ValueId v) {
  if (!saturated_ || !IsPending(v)) return;
  RankSlot& slot = Slot(v);
  if (slot.dirty) return;
  slot.dirty = true;
  dirty_.push_back(v);
}

void MmmiSelector::MarkAllPendingDirty() {
  for (ValueId v : PendingValues()) MarkDirty(v);
}

void MmmiSelector::OnFrontierInsert(ValueId v) {
  GreedyLinkSelector::OnFrontierInsert(v);
  MarkDirty(v);
}

void MmmiSelector::OnSaturation() {
  if (saturated_) return;  // AdaptiveSelector may repeat the signal
  saturated_ = true;
  MarkAllPendingDirty();
}

void MmmiSelector::Bump(ValueId v, ValueId u) {
  MarkDirty(v);
  partners_.EnsureRows(static_cast<size_t>(v) + 1);
  std::span<std::pair<ValueId, uint32_t>> row = partners_.MutableRow(v);
  auto it = std::lower_bound(
      row.begin(), row.end(), u,
      [](const std::pair<ValueId, uint32_t>& entry, ValueId key) {
        return entry.first < key;
      });
  if (it != row.end() && it->first == u) {
    ++it->second;
  } else {
    // New partner: append, then rotate it back into sorted position so
    // CachedDependency can aggregate the row without a per-call sort.
    size_t pos = static_cast<size_t>(it - row.begin());
    partners_.Append(v, {u, 1u});
    row = partners_.MutableRow(v);  // Append may have relocated the row
    std::rotate(row.begin() + static_cast<ptrdiff_t>(pos), row.end() - 1,
                row.end());
  }
}

void MmmiSelector::OnRecordHarvested(uint32_t slot) {
  GreedyLinkSelector::OnRecordHarvested(slot);
  // Live path: credit this record to co(v, u) for every (pending v,
  // issued u) occurrence pair. Occurrence (not distinct-value) pairing
  // mirrors the oracle rescan's multiplicity semantics exactly.
  std::span<const ValueId> values = store().RecordValues(slot);
  issued_in_record_.clear();
  for (ValueId u : values) {
    if (IsIssued(u)) issued_in_record_.push_back(u);
  }
  if (saturated_) {
    // f_v (and the degree) moved for every value here; f_u moved for
    // every issued u here, which only an incomplete drain allows.
    for (ValueId v : values) MarkDirty(v);
    for (ValueId u : issued_in_record_) {
      RankSlot& moved = Slot(u);
      if (moved.moved) continue;
      moved.moved = true;
      moved_.push_back(u);
    }
  }
  if (issued_in_record_.empty()) return;
  for (ValueId v : values) {
    if (!IsPending(v)) continue;
    for (ValueId u : issued_in_record_) {
      if (u != v) Bump(v, u);
    }
  }
}

void MmmiSelector::OnQueryCompleted(const QueryOutcome& outcome) {
  ValueId v = outcome.value;
  if (v >= queried_bitmap_.size()) {
    queried_bitmap_.resize(static_cast<size_t>(v) + 1, 0);
  }
  if (queried_bitmap_[v]) return;  // guard: backfill exactly once
  queried_bitmap_[v] = 1;
  // Backfill path: records containing v harvested *before* v completed
  // predate the live path's bitmap check; credit them now.
  for (uint32_t slot : store().LocalPostings(v)) {
    for (ValueId u : store().RecordValues(slot)) {
      if (u != v && IsPending(u)) Bump(u, v);
    }
  }
}

MmmiSelector::Dependency MmmiSelector::CachedDependency(ValueId q) const {
  const LocalStore& db = store();
  Dependency result{kNegInf, kNegInf};
  double n = static_cast<double>(db.num_records());
  if (n == 0) return result;
  double freq_q = static_cast<double>(db.LocalFrequency(q));
  if (freq_q == 0) return result;
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (const auto& [u, co] : partners_.Row(q)) {
    double freq_u = static_cast<double>(db.LocalFrequency(u));
    // ln( P(q,u) / (P(q) P(u)) ) = ln( co * n / (freq_q * freq_u) ).
    double pmi = std::log(static_cast<double>(co) * n / (freq_q * freq_u));
    result.max_pmi = std::max(result.max_pmi, pmi);
    weighted_sum += static_cast<double>(co) * pmi;
    weight_total += static_cast<double>(co);
  }
  if (weight_total > 0.0) {
    result.weighted_pmi = weighted_sum / weight_total;
  }
  return result;
}

MmmiSelector::RankKey MmmiSelector::ComputeKey(ValueId v) const {
  const LocalStore& db = store();
  RankKey key{};
  key.value = v;
  const bool pure = options_.ranking == MmmiRanking::kPureDependency;
  if (pure) key.degree = db.LocalDegree(v);
  uint32_t freq = db.LocalFrequency(v);
  std::span<const std::pair<ValueId, uint32_t>> row = partners_.Row(v);
  double magnitude = static_cast<double>(freq) + 1.0;
  if (freq == 0 || row.empty()) {
    // s = -inf: the clamped score (f+1)·e^60 depends on f alone, and
    // kPureDependency ties the whole tier.
    key.tier = 0;
    if (!pure) {
      key.key = magnitude;
      key.sig_freq = freq;
    }
    return key;
  }
  key.tier = 1;
  if (options_.ranking == MmmiRanking::kWeightedDependency) {
    double weighted_sum = 0.0;
    double weight_total = 0.0;
    for (const auto& [u, co] : row) {
      double freq_u = static_cast<double>(db.LocalFrequency(u));
      weighted_sum += static_cast<double>(co) *
                      std::log(static_cast<double>(co) /
                               (static_cast<double>(freq) * freq_u));
      weight_total += static_cast<double>(co);
    }
    key.key = magnitude * std::exp(-weighted_sum / weight_total);
    key.sig_den = v;  // a group of one
    return key;
  }
  // Argmax of co/f_u, compared exactly (co·f_u stays far below 2^64).
  uint64_t best_co = 0;
  uint64_t best_freq = 1;
  for (const auto& [u, co] : row) {
    uint64_t freq_u = db.LocalFrequency(u);
    if (co * best_freq > best_co * freq_u) {
      best_co = co;
      best_freq = freq_u;
    }
  }
  uint64_t divisor = std::gcd(best_co, best_freq);
  key.sig_freq = freq;
  key.sig_num = static_cast<uint32_t>(best_co / divisor);
  key.sig_den = static_cast<uint32_t>(best_freq / divisor);
  // exp(-s') = f_v·f_u*/co*: s ascending is this descending.
  double inverse_ratio = static_cast<double>(freq) *
                         static_cast<double>(key.sig_den) /
                         static_cast<double>(key.sig_num);
  key.key = pure ? inverse_ratio : magnitude * inverse_ratio;
  return key;
}

MmmiSelector::Scored MmmiSelector::ScoreExact(ValueId v) const {
  Dependency dep = CachedDependency(v);
  double penalty = options_.ranking == MmmiRanking::kWeightedDependency
                       ? dep.weighted_pmi
                       : dep.max_pmi;
  // exp(-s) with s = -inf (no co-occurrence with any issued query)
  // gives +inf: an uncorrelated candidate outranks everything of
  // similar degree. Clamp to keep the arithmetic finite.
  double discount = std::exp(std::clamp(-penalty, -60.0, 60.0));
  double magnitude = static_cast<double>(store().LocalFrequency(v)) + 1.0;
  return Scored{dep.max_pmi, store().LocalDegree(v), magnitude * discount,
                v};
}

void MmmiSelector::Rescore(ValueId v) {
  RankSlot& slot = slots_[v];
  slot.dirty = false;
  if (slot.ranked) ranked_.erase(slot.pos);
  slot.ranked = IsPending(v);
  if (slot.ranked) slot.pos = ranked_.insert(ComputeKey(v)).first;
}

void MmmiSelector::RecomputeBatch() {
  // An issued u whose frequency moved shifts the key of every pending
  // value that shares a local record with it.
  for (ValueId u : moved_) {
    slots_[u].moved = false;
    for (uint32_t slot : store().LocalPostings(u)) {
      for (ValueId v : store().RecordValues(slot)) MarkDirty(v);
    }
  }
  moved_.clear();
  for (ValueId v : dirty_) Rescore(v);
  dirty_.clear();

  // Walk the head. Each signature group gets one exact evaluation and
  // gives at most batch_size members: the rest tie on score and lose
  // the id (or degree) tie-break to those. The walk stops once a
  // batch's worth is gathered and the next group's key falls below the
  // margin; values that left the frontier are dropped as met.
  const size_t batch = options_.batch_size;
  const double margin = options_.ranking == MmmiRanking::kWeightedDependency
                            ? kWeightedBandMargin
                            : kBandMargin;
  auto drop_gone = [this](RankSet::iterator it) {
    while (it != ranked_.end() && !IsPending(it->value)) {
      slots_[it->value].ranked = false;
      it = ranked_.erase(it);
    }
    return it;
  };
  auto same_group = [](const RankKey& a, const RankKey& b) {
    return a.tier == b.tier && a.sig_freq == b.sig_freq &&
           a.sig_num == b.sig_num && a.sig_den == b.sig_den;
  };
  scored_.clear();
  std::optional<RankKey> nth;  // the batch_size-th member gathered
  auto it = drop_gone(ranked_.begin());
  while (it != ranked_.end()) {
    if (nth && (it->tier > nth->tier ||
                it->key < (1.0 - margin) * nth->key)) {
      break;
    }
    const RankKey head = *it;
    Scored exact = ScoreExact(head.value);
    size_t taken = 0;
    while (it != ranked_.end() && taken < batch && same_group(*it, head)) {
      exact.value = it->value;
      exact.degree = store().LocalDegree(it->value);
      scored_.push_back(exact);
      ++taken;
      if (scored_.size() == batch) nth = *it;
      it = drop_gone(std::next(it));
    }
    if (taken == batch) {
      RankKey past_group = head;
      past_group.degree = 0;
      past_group.value = kInvalidValueId;
      it = drop_gone(ranked_.upper_bound(past_group));
    }
  }

  // Only the top batch_size entries are consumed, and both comparators
  // are total orders (they end in the value-id tie-break), so a partial
  // sort selects exactly the prefix a full sort would.
  size_t take = std::min(batch, scored_.size());
  auto middle = scored_.begin() + static_cast<ptrdiff_t>(take);
  if (options_.ranking == MmmiRanking::kPureDependency) {
    // Ascending dependency (least-correlated first); among equals prefer
    // the better-connected value (the greedy-link signal), then smaller
    // id for determinism. Comparators end in the id tie-break, so the
    // ranking is independent of frontier enumeration order.
    std::partial_sort(scored_.begin(), middle, scored_.end(),
                      [](const Scored& a, const Scored& b) {
                        if (a.dependency != b.dependency) {
                          return a.dependency < b.dependency;
                        }
                        if (a.degree != b.degree) return a.degree > b.degree;
                        return a.value < b.value;
                      });
  } else {
    // Dependency-discounted popularity, best first.
    std::partial_sort(scored_.begin(), middle, scored_.end(),
                      [](const Scored& a, const Scored& b) {
                        if (a.combined != b.combined) {
                          return a.combined > b.combined;
                        }
                        return a.value < b.value;
                      });
  }
  batch_queue_.clear();
  for (size_t i = 0; i < take; ++i) {
    batch_queue_.push_back(scored_[i].value);
  }
}

Status MmmiSelector::SaveState(CheckpointWriter& writer) const {
  DEEPCRAWL_RETURN_IF_ERROR(GreedyLinkSelector::SaveState(writer));
  // Options fingerprint: the ranking mode changes selection, so a
  // checkpoint must not silently resume under a different one.
  writer.WriteU32(options_.batch_size);
  writer.WriteU8(static_cast<uint8_t>(options_.ranking));
  writer.WriteU8(saturated_ ? 1 : 0);
  writer.WriteString(
      std::string_view(queried_bitmap_.data(), queried_bitmap_.size()));
  writer.WriteU64(batch_queue_.size());
  for (ValueId v : batch_queue_) writer.WriteU32(v);
  writer.WriteU64(partners_.num_rows());
  for (size_t row = 0; row < partners_.num_rows(); ++row) {
    std::span<const std::pair<ValueId, uint32_t>> entries =
        partners_.Row(row);
    writer.WriteU64(entries.size());
    for (const auto& [partner, co] : entries) {
      writer.WriteU32(partner);
      writer.WriteU32(co);
    }
  }
  return Status::OK();
}

Status MmmiSelector::LoadState(CheckpointReader& reader,
                               ValueId value_bound) {
  DEEPCRAWL_RETURN_IF_ERROR(
      GreedyLinkSelector::LoadState(reader, value_bound));
  uint32_t batch_size = reader.ReadU32();
  uint8_t ranking = reader.ReadU8();
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (batch_size != options_.batch_size ||
      ranking != static_cast<uint8_t>(options_.ranking)) {
    return Status::InvalidArgument(
        "checkpoint MMMI-options mismatch: batch size or ranking mode "
        "differs from the checkpointing run");
  }
  saturated_ = reader.ReadU8() != 0;
  std::string bitmap = reader.ReadString();
  if (bitmap.find_first_not_of(std::string_view("\0\1", 2)) !=
      std::string::npos) {
    reader.MarkCorrupt("queried bitmap byte is neither 0 nor 1");
  }
  queried_bitmap_.assign(bitmap.begin(), bitmap.end());
  batch_queue_.clear();
  uint64_t queued = reader.ReadCount(4);
  for (uint64_t i = 0; i < queued && reader.ok(); ++i) {
    ValueId v = reader.ReadU32();
    if (v >= value_bound) {
      reader.MarkCorrupt("batch-queue value id out of range");
      break;
    }
    batch_queue_.push_back(v);
  }
  partners_ = ChunkedArena<std::pair<ValueId, uint32_t>>();
  uint64_t num_rows = reader.ReadCount(8);
  if (reader.ok() && num_rows > value_bound) {
    reader.MarkCorrupt("co-occurrence row count out of range");
  }
  if (reader.ok()) partners_.EnsureRows(static_cast<size_t>(num_rows));
  for (uint64_t row = 0; row < num_rows && reader.ok(); ++row) {
    uint64_t entries = reader.ReadCount(8);
    ValueId last_partner = 0;
    for (uint64_t i = 0; i < entries && reader.ok(); ++i) {
      ValueId partner = reader.ReadU32();
      uint32_t co = reader.ReadU32();
      // Rows must come back sorted ascending by partner id — the
      // invariant CachedDependency's aggregation order relies on.
      if (partner >= value_bound || co == 0 ||
          (i > 0 && partner <= last_partner)) {
        reader.MarkCorrupt("co-occurrence row invalid");
        break;
      }
      last_partner = partner;
      partners_.Append(static_cast<size_t>(row), {partner, co});
    }
  }
  // The ranking structure is derived state: rebuild it from scratch.
  ranked_.clear();
  slots_.clear();
  dirty_.clear();
  moved_.clear();
  if (reader.ok()) MarkAllPendingDirty();
  return reader.status();
}

ValueId MmmiSelector::SelectNext() {
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

}  // namespace deepcrawl
