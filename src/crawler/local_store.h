// LocalStore: the crawler's local database DBlocal and the incremental
// statistics table over it.
//
// §2.5: the Query Selector keeps a statistics table with "all the
// information needed ... to make the selection decision", fed by the
// Result Extractor as records are harvested. This class is that store:
//
//   * deduplicated harvested records (the crawler may receive the same
//     record from many queries; only the first copy counts);
//   * per-value local match counts num(q, DBlocal);
//   * local postings (which local records contain a value), powering the
//     mutual-information computations of §3.3;
//   * the degree of every value in the local attribute-value graph
//     G_local (distinct co-occurring values), maintained incrementally,
//     powering the greedy link-based selector of §3.2.
//
// Layout: postings live in a ChunkedArena dynamic-CSR store (one flat
// buffer, amortized relocation on doubling, epoch compaction). G_local
// is kept only as far as selection reads it: one flat open-addressing
// hash of packed (min, max) value pairs deduplicates edges — one probe
// per record value pair — and a new edge raises both endpoints' degree
// counters. No neighbour lists are kept. Record ids map to slots through
// a flat hash as well, so a returned record costs one probe. The
// per-value containers this replaced live on as a test oracle in
// tests/reference_local_store.h; see DESIGN.md §9.

#ifndef DEEPCRAWL_CRAWLER_LOCAL_STORE_H_
#define DEEPCRAWL_CRAWLER_LOCAL_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/relation/types.h"
#include "src/util/chunked_arena.h"
#include "src/util/flat_hash.h"

namespace deepcrawl {

class LocalStore {
 public:
  LocalStore() = default;

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // Adds a harvested record. Returns true when the record was new.
  // A new record starts with one observation.
  bool AddRecord(RecordId id, std::span<const ValueId> values);

  bool ContainsRecord(RecordId id) const;

  // When the record is already stored, notes that some query returned it
  // again and returns true; otherwise changes nothing and returns false.
  // One hash probe either way. Duplicate-observation counts ("abundance
  // data") feed the Chao-style online size estimators in src/estimate.
  bool ObserveIfStored(RecordId id);

  // Total result records observed, duplicates included.
  uint64_t num_observations() const;

  // Number of stored records observed exactly `k` times (k >= 1).
  size_t RecordsObservedTimes(uint32_t k) const;

  size_t num_records() const;
  size_t num_values_seen() const;

  // num(q, DBlocal): local records containing `v`.
  uint32_t LocalFrequency(ValueId v) const;

  // Degree of `v` in G_local: the number of distinct co-occurring values.
  uint64_t LocalDegree(ValueId v) const;

  // Local record slots (indices into this store) containing `v`, in
  // harvest order. Invalidated by the next AddRecord.
  std::span<const uint32_t> LocalPostings(ValueId v) const;

  // Values of the local record in slot `slot`, in the order given to
  // AddRecord. Invalidated by the next AddRecord.
  std::span<const ValueId> RecordValues(uint32_t slot) const;

  // Original (server-side) record id of slot `slot`.
  RecordId OriginalRecordId(uint32_t slot) const;

 private:
  void EnsureValueCapacity(ValueId v);

  // Record content, CSR-style; slot i holds the i-th harvested record.
  std::vector<ValueId> record_values_;
  std::vector<size_t> record_offsets_ = {0};
  std::vector<RecordId> original_ids_;
  // (id + 1) -> (slot + 1): 0 stays free as both the empty-slot key and
  // FlatMap64::Find's "absent" answer.
  FlatMap64 slot_of_;
  std::vector<uint32_t> observation_count_;  // per slot
  uint64_t num_observations_ = 0;

  // Per-value statistics, indexed by ValueId (grown on demand).
  std::vector<uint32_t> local_frequency_;
  std::vector<uint32_t> degree_;

  // Dynamic-CSR postings, plus the flat edge hash that deduplicates
  // G_local edges ((min << 32) | max keys).
  ChunkedArena<uint32_t> postings_csr_;
  FlatSet64 edge_set_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_LOCAL_STORE_H_
