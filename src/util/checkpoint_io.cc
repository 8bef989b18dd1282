#include "src/util/checkpoint_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace deepcrawl {

namespace {

constexpr char kMagic[4] = {'D', 'C', 'P', 'K'};
constexpr size_t kHeaderSize = 4 + 4 + 8;  // magic + version + payload size
constexpr size_t kFooterSize = 8;          // checksum

}  // namespace

void CheckpointWriter::WriteU32(uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out_->append(bytes, sizeof(bytes));
}

void CheckpointWriter::WriteU64(uint64_t v) {
  const char bytes[8] = {
      static_cast<char>(v),       static_cast<char>(v >> 8),
      static_cast<char>(v >> 16), static_cast<char>(v >> 24),
      static_cast<char>(v >> 32), static_cast<char>(v >> 40),
      static_cast<char>(v >> 48), static_cast<char>(v >> 56)};
  out_->append(bytes, sizeof(bytes));
}

void CheckpointWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void CheckpointWriter::WriteString(std::string_view text) {
  WriteU32(static_cast<uint32_t>(text.size()));
  out_->append(text.data(), text.size());
}

void CheckpointWriter::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*out_)[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

size_t CheckpointWriter::BeginFrame(uint32_t version) {
  const size_t frame_start = out_->size();
  out_->append(kMagic, sizeof(kMagic));
  WriteU32(version);
  WriteU64(0);  // payload size, patched by EndFrame
  return frame_start;
}

void CheckpointWriter::EndFrame(size_t frame_start) {
  const size_t payload_start = frame_start + kHeaderSize;
  const uint64_t payload_size = out_->size() - payload_start;
  PatchU32(payload_start - 8, static_cast<uint32_t>(payload_size));
  PatchU32(payload_start - 4, static_cast<uint32_t>(payload_size >> 32));
  WriteU64(CheckpointChecksum(
      std::string_view(*out_).substr(payload_start)));
}

bool CheckpointReader::Require(size_t bytes) {
  if (!ok()) return false;
  if (remaining() < bytes) {
    MarkCorrupt("unexpected end of checkpoint data");
    return false;
  }
  return true;
}

uint8_t CheckpointReader::ReadU8() {
  if (!Require(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t CheckpointReader::ReadU32() {
  if (!Require(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t CheckpointReader::ReadU64() {
  if (!Require(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double CheckpointReader::ReadDouble() {
  uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string CheckpointReader::ReadString() { return std::string(ReadBytes()); }

std::string_view CheckpointReader::ReadBytes() { return ReadRaw(ReadU32()); }

std::string_view CheckpointReader::ReadRaw(size_t size) {
  if (!Require(size)) return std::string_view();
  std::string_view bytes = data_.substr(pos_, size);
  pos_ += size;
  return bytes;
}

uint64_t CheckpointReader::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!Require(1)) return 0;
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && byte > 1) break;  // past 64 bits
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) break;  // non-minimal
      return v;
    }
  }
  MarkCorrupt("malformed varint");
  return 0;
}

namespace {

// Latches `reader` corrupt unless `count` elements of at least
// `elem_size` bytes fit in what remains.
uint64_t CheckedCount(CheckpointReader& reader, uint64_t count,
                      size_t elem_size) {
  if (!reader.ok()) return 0;
  if (elem_size == 0 || count > reader.remaining() / elem_size) {
    reader.MarkCorrupt("element count exceeds remaining checkpoint data");
    return 0;
  }
  return count;
}

}  // namespace

uint64_t CheckpointReader::ReadCount(size_t elem_size) {
  return CheckedCount(*this, ReadU64(), elem_size);
}

uint64_t CheckpointReader::ReadVarintCount(size_t min_elem_size) {
  return CheckedCount(*this, ReadVarint(), min_elem_size);
}

void CheckpointReader::MarkCorrupt(std::string reason) {
  if (error_.empty()) error_ = std::move(reason);
}

Status CheckpointReader::status() const {
  if (ok()) return Status::OK();
  return Status::InvalidArgument("corrupt checkpoint: " + error_);
}

uint64_t CheckpointChecksum(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string FrameCheckpoint(std::string_view payload, uint32_t version) {
  std::string framed;
  framed.reserve(kHeaderSize + payload.size() + kFooterSize);
  CheckpointWriter writer(framed);
  const size_t frame = writer.BeginFrame(version);
  framed.append(payload.data(), payload.size());
  writer.EndFrame(frame);
  return framed;
}

StatusOr<std::string_view> UnframeCheckpoint(std::string_view image,
                                             uint32_t expected_version) {
  if (image.size() < kHeaderSize + kFooterSize) {
    return Status::InvalidArgument(
        "corrupt checkpoint: file too short to hold a checkpoint header");
  }
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "corrupt checkpoint: bad magic (not a crawl checkpoint file)");
  }
  CheckpointReader header(image.substr(4, kHeaderSize - 4));
  uint32_t version = header.ReadU32();
  uint64_t payload_size = header.ReadU64();
  if (version != expected_version) {
    return Status::InvalidArgument(
        "checkpoint format version mismatch: file has version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(expected_version));
  }
  if (payload_size != image.size() - kHeaderSize - kFooterSize) {
    return Status::InvalidArgument(
        "corrupt checkpoint: payload size field does not match file size "
        "(truncated or padded file)");
  }
  std::string_view payload = image.substr(kHeaderSize, payload_size);
  CheckpointReader footer(image.substr(kHeaderSize + payload_size));
  uint64_t stored = footer.ReadU64();
  if (stored != CheckpointChecksum(payload)) {
    return Status::InvalidArgument(
        "corrupt checkpoint: payload checksum mismatch");
  }
  return payload;
}

namespace {

// Directory component of `path`, or "." when it has none; what must be
// fsynced for a rename in that directory to be durable.
std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("cannot open directory '" + dir +
                            "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return Status::Internal("fsync failed for directory '" + dir +
                            "': " + std::strerror(err));
  }
  ::close(fd);
  return Status::OK();
}

// Unique per-writer temp name: pid distinguishes processes, the
// counter distinguishes threads/calls within one process, so two
// checkpointers targeting the same path never open the same temp file.
std::string UniqueTempName(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::string tmp = UniqueTempName(path);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::NotFound("cannot create '" + tmp + "'");
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::Internal("write failed for '" + tmp +
                              "': " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::Internal("fsync failed for '" + tmp +
                            "': " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    return Status::Internal("close failed for '" + tmp +
                            "': " + std::strerror(err));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // Without this the rename itself may be lost in a crash, leaving the
  // directory entry pointing at the old (or no) file.
  return SyncDir(ParentDir(path));
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  if (file.bad()) return Status::Internal("read failed for '" + path + "'");
  return bytes;
}

}  // namespace deepcrawl
