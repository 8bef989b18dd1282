#include "src/crawler/mmmi_selector.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"

namespace deepcrawl {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

MmmiSelector::MmmiSelector(const LocalStore& store, MmmiOptions options)
    : GreedyLinkSelector(store), options_(options) {
  DEEPCRAWL_CHECK_GT(options_.batch_size, 0u);
}

void MmmiSelector::Bump(ValueId v, ValueId u) {
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

void MmmiSelector::RecomputeBatch() {
  std::span<const ValueId> candidates = PendingValues();
  if (candidates.empty()) return;

  scored_.clear();
  scored_.reserve(candidates.size());
  for (ValueId v : candidates) {
    Dependency dep = CachedDependency(v);
    double s = dep.max_pmi;
    uint64_t degree = store().LocalDegree(v);
    double combined;
    if (options_.ranking == MmmiRanking::kWeightedDependency) {
      double discount =
          std::exp(std::clamp(-dep.weighted_pmi, -60.0, 60.0));
      combined =
          (static_cast<double>(store().LocalFrequency(v)) + 1.0) * discount;
    } else {
      // exp(-s) with s = -inf (no co-occurrence with any issued query)
      // gives +inf: an uncorrelated candidate outranks everything of
      // similar degree. Clamp to keep the arithmetic finite.
      double discount = std::exp(std::clamp(-s, -60.0, 60.0));
      double magnitude =
          static_cast<double>(store().LocalFrequency(v)) + 1.0;
      combined = magnitude * discount;
    }
    scored_.push_back(Scored{s, degree, combined, v});
  }
  // Only the top batch_size entries are consumed, and both comparators
  // are total orders (they end in the value-id tie-break), so a partial
  // sort selects exactly the prefix a full sort would — at O(N log B)
  // per batch instead of O(N log N), which dominates the marginal phase
  // where every batch re-ranks thousands of pending values.
  size_t take = std::min<size_t>(options_.batch_size, scored_.size());
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
