// Checkpoint byte streams: the little-endian encoder/decoder and file
// framing underneath the crawl checkpoint layer (see
// src/crawler/checkpoint.h and DESIGN.md §10).
//
// Writer side is a plain append-only buffer. Reader side is
// *sticky-failure bounds-checked*: the first out-of-bounds read (or an
// explicit MarkCorrupt from semantic validation) latches the reader
// into a failed state in which every later read returns zeroes, so a
// decoder can run a whole section straight through and test status()
// once — corrupt input can produce an error, never a crash or an
// out-of-bounds access. ReadCount() additionally validates element
// counts against the bytes actually remaining, so a corrupt length
// field can never trigger a huge allocation.
//
// The file framing (magic, version, payload size, FNV-1a checksum)
// rejects truncated, bit-flipped, or version-mismatched images before
// any section is decoded.

#ifndef DEEPCRAWL_UTIL_CHECKPOINT_IO_H_
#define DEEPCRAWL_UTIL_CHECKPOINT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace deepcrawl {

// Append-only little-endian encoder. It owns its buffer by default, or
// appends to a caller's string (a connection's send buffer), so a frame
// is encoded straight into its destination.
class CheckpointWriter {
 public:
  CheckpointWriter() : out_(&own_) {}
  // Appends to `out`, which must outlive the writer.
  explicit CheckpointWriter(std::string& out) : out_(&out) {}

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void WriteU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  // Doubles are serialized as their IEEE-754 bit pattern, so values
  // round-trip exactly (including infinities).
  void WriteDouble(double v);
  // Length-prefixed (u32) byte string.
  void WriteString(std::string_view text);
  // Appends `bytes` as they are (the twin of CheckpointReader::ReadRaw).
  void WriteRaw(std::string_view bytes) { out_->append(bytes); }
  // LEB128: 7 bits per byte, low group first, high bit = "more follows".
  // Encoded on the stack and appended once: one capacity check per
  // varint, not per byte (the engine's fetch log writes millions).
  void WriteVarint(uint64_t v) {
    char bytes[10];
    size_t n = 0;
    for (; v >= 0x80; v >>= 7) {
      bytes[n++] = static_cast<char>((v & 0x7f) | 0x80);
    }
    bytes[n++] = static_cast<char>(v);
    out_->append(bytes, n);
  }

  // Overwrites the u32 at byte `offset` of the buffer (a length field
  // reserved before its contents were known).
  void PatchU32(size_t offset, uint32_t v);

  // In-place form of FrameCheckpoint: BeginFrame appends the header
  // with a placeholder payload size and returns where the frame
  // starts; everything written after it is the payload; EndFrame
  // patches the size and appends the checksum. The bytes equal
  // FrameCheckpoint(payload, version) without copying the payload.
  size_t BeginFrame(uint32_t version);
  void EndFrame(size_t frame_start);

  const std::string& buffer() const { return *out_; }
  std::string TakeBuffer() { return std::move(*out_); }

 private:
  std::string own_;
  std::string* out_;
};

// Bounds-checked little-endian decoder with sticky failure.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view data) : data_(data) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  double ReadDouble();
  std::string ReadString();
  // A length-prefixed (u32) byte string, viewing into the reader's data.
  std::string_view ReadBytes();
  // The next `size` bytes, viewing into the reader's data.
  std::string_view ReadRaw(size_t size);
  // Rejects truncated, overlong (past 64 bits) and non-minimal encodings.
  uint64_t ReadVarint();

  // Reads a u64 element count and validates that `count * elem_size`
  // bytes actually remain, so corrupt counts can never drive a huge
  // allocation. Returns 0 (latching failure) on a bad count;
  // `elem_size` must be >= 1.
  uint64_t ReadCount(size_t elem_size);
  // ReadCount for a varint count whose elements take at least
  // `min_elem_size` bytes each.
  uint64_t ReadVarintCount(size_t min_elem_size);

  // Latches the failed state with a reason (semantic validation
  // failures, e.g. an out-of-range value id).
  void MarkCorrupt(std::string reason);

  bool ok() const { return error_.empty(); }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  // OK, or InvalidArgument describing the first decode failure.
  Status status() const;

 private:
  bool Require(size_t bytes);

  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;
};

// FNV-1a over `data`; the payload checksum used by the framing.
uint64_t CheckpointChecksum(std::string_view data);

// Wraps `payload` in the magic/version/size/checksum framing:
//   magic "DCPK" | u32 version | u64 payload size | payload | u64 fnv1a
// (a copy; encoders frame in place with CheckpointWriter::BeginFrame).
std::string FrameCheckpoint(std::string_view payload, uint32_t version);

// Validates the framing of a full image and returns the payload slice
// (viewing into `image`), or a clean InvalidArgument for any corruption
// or a version other than `expected_version`.
StatusOr<std::string_view> UnframeCheckpoint(std::string_view image,
                                             uint32_t expected_version);

// Atomic durable file write: a per-writer-unique temp name
// (<path>.tmp.<pid>.<seq>, so concurrent checkpointers to the same
// path never truncate each other's in-flight temp), written, fsynced,
// renamed over `path`, then the containing directory is fsynced — a
// crash at any point leaves either the previous file or the complete
// new file, never a zero-length or partial one. Returns
// Status::Internal on fsync/rename failure.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

StatusOr<std::string> ReadFileBytes(const std::string& path);

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_CHECKPOINT_IO_H_
