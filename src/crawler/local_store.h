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
// is kept only as far as selection reads it: exact degree counters, and
// no neighbour lists. A record's new edges are found three ways, by
// the local frequencies its values had before it (Figure 2's power law
// makes most of them small):
//
//   * a pair with a value never seen before is new;
//   * a pair of hubs, two values above kHubFrequency (T = 8), is
//     probed in one flat open-addressing hash of packed (min, max)
//     pairs, the home slots prefetched before the first insert;
//   * any other pair is owned by its rarer endpoint, by (frequency,
//     position in the record). That value has at most T earlier
//     records, and one scan of them settles all of its owned pairs.
//
// The hash holds exactly the local edges whose two endpoints are both
// above T: when a value crosses T, its records are walked once and its
// edges to hubs inserted. After a full IMDB 0.3 crawl that is 131k of
// 2.52M edges, a 2 MB table instead of 32 MB; DESIGN.md §9 has the
// sizes, replay times and peak RSS. T = 0 hashes every edge.
// The record index is one flat hash of packed 8-byte entries,
// (observations << 32) | (id + 1): a returned record costs one probe,
// and a duplicate bumps its count in the slot that probe found. The
// per-value containers this replaced live on as a test oracle in
// tests/reference_local_store.h.

#ifndef DEEPCRAWL_CRAWLER_LOCAL_STORE_H_
#define DEEPCRAWL_CRAWLER_LOCAL_STORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/relation/types.h"
#include "src/util/chunked_arena.h"
#include "src/util/flat_hash.h"

namespace deepcrawl {

class LocalStore {
 public:
  // Local frequency above which a value is a hub: edges between two
  // hubs are hashed, every other edge is found by scanning the records
  // of its rarer endpoint.
  static constexpr uint32_t kHubFrequency = 8;

  // `hub_frequency` is T; tests pick others (0 hashes every edge,
  // UINT32_MAX none).
  explicit LocalStore(uint32_t hub_frequency = kHubFrequency)
      : hub_frequency_(hub_frequency) {}

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // Adds a harvested record. Returns true when the record was new.
  // A new record starts with one observation. `id` must not be
  // kInvalidRecordId and `values` must not be empty. A value repeated
  // in `values` counts once toward its frequency and postings.
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

  // Edges in the hub hash: the local edges whose two endpoints both
  // have local frequency above T.
  size_t num_hub_edges() const { return edge_set_.size(); }

 private:
  void EnsureValueCapacity(ValueId v);

  // `values` when strictly ascending (server records are), else a
  // sorted, deduplicated copy in distinct_.
  std::span<const ValueId> DistinctAscending(std::span<const ValueId> values);

  // Adds to the positions' new_edges the tail pairs that no earlier
  // record of their owner, the rarer endpoint, contains.
  void CountTailEdges(std::span<const ValueId> distinct);

  // Hashes `v`'s edges to hubs; `v` has just crossed T.
  void PromoteToHub(ValueId v);

  // Record index key: 0 is the map's empty slot, and kInvalidRecordId
  // maps to it, so that id is never found.
  static uint32_t RecordKey(RecordId id) { return id + 1; }

  // Record content, CSR-style; slot i holds the i-th harvested record.
  std::vector<ValueId> record_values_;
  std::vector<size_t> record_offsets_ = {0};
  std::vector<RecordId> original_ids_;
  // RecordKey(id) -> times the record was observed.
  FlatCountMap32 observations_;
  uint64_t num_observations_ = 0;

  // Per-value statistics, indexed by ValueId (grown on demand).
  std::vector<uint32_t> local_frequency_;
  std::vector<uint32_t> degree_;

  // Dynamic-CSR postings, plus the flat hash of hub–hub edges
  // ((min << 32) | max keys).
  ChunkedArena<uint32_t> postings_csr_;
  const uint32_t hub_frequency_;
  FlatSet64 edge_set_;

  // AddRecord's scratch, reused across records. One Position per value
  // of the distinct record.
  struct Position {
    uint32_t prior_frequency;  // local frequency before the record
    uint32_t new_edges;        // edges to values of the record found new
    bool scans;                // owns a tail pair: scans its records
  };
  std::vector<ValueId> distinct_;
  std::vector<Position> positions_;
  // Tail pairs as (owner, other) positions, and the owners' scans: their
  // posting rows, their earlier records' value ranges, and an n x n
  // matrix of which positions each owner has met.
  std::vector<std::pair<uint32_t, uint32_t>> tail_pairs_;
  std::vector<std::span<const uint32_t>> scan_rows_;
  std::vector<std::pair<const ValueId*, const ValueId*>> scan_records_;
  std::vector<uint8_t> met_;
  // Hub–hub pair keys and their hashes.
  std::vector<uint64_t> pair_keys_;
  std::vector<uint64_t> pair_hashes_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_CRAWLER_LOCAL_STORE_H_
