// ChunkedArena: per-row growable lists packed into one flat arena — a
// dynamic CSR layout with amortized relocation and epoch compaction.
//
// The crawler keeps per-value lists that grow one element at a time as
// records are harvested: the LocalStore's local postings (record slots
// containing a value) and MmmiSelector's co-occurrence rows (issued
// partner, count). Holding each list in its own std::vector (let alone
// std::unordered_set) costs an allocation per list plus scattered heap
// traffic on every scan. This container packs every row into a single
// contiguous arena:
//
//   * each row owns a [offset, offset+capacity) chunk of the arena;
//   * Append into a full row relocates it to the arena tail with
//     doubled capacity (amortized O(1), classic dynamic-CSR move);
//   * abandoned chunks are garbage until the arena's live fraction
//     drops below half, at which point one compaction pass rebuilds the
//     arena dense in row order (the "epoch" rebuild — O(live) work
//     amortized over the doubling that triggered it).
//
// Row spans are invalidated by any Append (relocation or compaction may
// move them), which matches the LocalStore contract that spans do not
// survive AddRecord. Row contents keep their append order across
// relocation and compaction, so consumers observe a deterministic,
// layout-independent sequence.

#ifndef DEEPCRAWL_UTIL_CHUNKED_ARENA_H_
#define DEEPCRAWL_UTIL_CHUNKED_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <span>
#include <vector>

#include "src/util/logging.h"

namespace deepcrawl {

template <typename T>
class ChunkedArena {
 public:
  ChunkedArena() = default;

  // Grows the row directory to hold at least `n` rows (new rows empty).
  void EnsureRows(size_t n) {
    if (n > rows_.size()) rows_.resize(n);
  }

  size_t num_rows() const { return rows_.size(); }

  void Append(size_t row, T value) {
    DEEPCRAWL_DCHECK(row < rows_.size()) << "row out of range";
    RowMeta& meta = rows_[row];
    if (meta.size == meta.capacity) Relocate(row);
    arena_[rows_[row].offset + rows_[row].size] = value;
    ++rows_[row].size;
    ++live_;
  }

  std::span<const T> Row(size_t row) const {
    if (row >= rows_.size()) return {};
    const RowMeta& meta = rows_[row];
    return std::span<const T>(arena_.data() + meta.offset, meta.size);
  }

  // Mutable view of a row's live elements, for in-place reorder or
  // overwrite (e.g. keeping a row sorted). Same invalidation rules as
  // Row; the row's size cannot be changed through the span.
  std::span<T> MutableRow(size_t row) {
    if (row >= rows_.size()) return {};
    const RowMeta& meta = rows_[row];
    return std::span<T>(arena_.data() + meta.offset, meta.size);
  }

  uint32_t RowSize(size_t row) const {
    return row < rows_.size() ? rows_[row].size : 0;
  }

  // Total live elements across all rows.
  size_t size() const { return live_; }
  // Arena footprint including garbage chunks (for tests/diagnostics).
  size_t arena_capacity() const { return arena_.size(); }
  // Elements in abandoned chunks awaiting the next epoch compaction
  // (for tests/diagnostics).
  size_t arena_garbage() const { return garbage_; }

 private:
  struct RowMeta {
    size_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  void Relocate(size_t row) {
    uint32_t new_capacity =
        rows_[row].capacity == 0 ? 4 : rows_[row].capacity * 2;
    // Epoch compaction: once more than half the arena is abandoned
    // chunks (counting the chunk this relocation is about to abandon),
    // rebuild it dense (in row order) instead of growing it.
    if (garbage_ + rows_[row].capacity > live_ + new_capacity &&
        arena_.size() >= 1024) {
      Compact();
    }
    // Counted after a possible Compact(): whichever chunk the row
    // occupies *now* (the original, or its freshly compacted copy of
    // capacity == size) is what the move below abandons.
    RowMeta& moved = rows_[row];
    garbage_ += moved.capacity;
    size_t new_offset = arena_.size();
    arena_.resize(arena_.size() + new_capacity);
    std::copy(arena_.begin() + static_cast<ptrdiff_t>(moved.offset),
              arena_.begin() + static_cast<ptrdiff_t>(moved.offset) +
                  moved.size,
              arena_.begin() + static_cast<ptrdiff_t>(new_offset));
    moved.offset = new_offset;
    moved.capacity = new_capacity;
    // Live elements plus abandoned chunks can never exceed the arena:
    // the slack is exactly the unused tail capacity of live chunks.
    DEEPCRAWL_DCHECK(garbage_ + live_ <= arena_.size())
        << "arena garbage accounting out of bounds";
  }

  void Compact() {
    std::vector<T> dense;
    dense.reserve(live_);
    for (RowMeta& meta : rows_) {
      size_t new_offset = dense.size();
      dense.insert(dense.end(), arena_.begin() + meta.offset,
                   arena_.begin() + meta.offset + meta.size);
      meta.offset = new_offset;
      meta.capacity = meta.size;
    }
    arena_ = std::move(dense);
    garbage_ = 0;
  }

  std::vector<RowMeta> rows_;
  std::vector<T> arena_;
  size_t live_ = 0;
  size_t garbage_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_CHUNKED_ARENA_H_
