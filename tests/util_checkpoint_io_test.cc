// Tests for the atomic/durable file-write protocol in
// src/util/checkpoint_io.h.
//
// Two regressions are pinned here:
//
//   * WriteFileAtomic used to build its temp file at the FIXED name
//     <path>.tmp, so two writers targeting the same path truncated
//     each other's in-flight temp and could rename a torn mix of both
//     payloads into place. The temp name is now unique per writer
//     (pid + per-process counter); concurrent writers must each
//     succeed and the surviving file must equal one complete payload.
//
//   * WriteFileAtomic did not fsync — a post-rename power cut could
//     leave a zero-length or stale file. It now fsyncs the temp before
//     the rename and the directory after, and reports fsync/IO
//     failures as Status::Internal (not NotFound, which is reserved
//     for an uncreatable temp).
//
// The golden-byte tests at the end pin the little-endian encoding and
// the magic/version/size/checksum framing byte for byte: both are
// on-disk (checkpoint) and on-wire (src/net/frame.h) formats, so an
// encoder rewrite must reproduce them exactly.

#include "src/util/checkpoint_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::ScopedTempDir;

TEST(WriteFileAtomicTest, RoundtripReplacesPreviousContent) {
  ScopedTempDir dir;
  std::string path = dir.File("deepcrawl_atomic_roundtrip.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second-longer-content").ok());
  StatusOr<std::string> read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second-longer-content");
}

TEST(WriteFileAtomicTest, UncreatableTempIsNotFound) {
  Status status =
      WriteFileAtomic("/nonexistent-dir-deepcrawl/x.bin", "payload");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(WriteFileAtomicTest, ConcurrentWritersToOnePathNeverTear) {
  // Regression for the shared <path>.tmp temp name: two threads
  // hammering the same destination with distinct large payloads. With
  // the fixed name this interleaving tears temp files (one writer
  // truncates the other's) and loses renames; with per-writer-unique
  // names every call must succeed and every observable file state is
  // one writer's complete payload.
  ScopedTempDir dir;
  std::string path = dir.File("deepcrawl_atomic_concurrent.bin");
  // Large enough that a write is not one atomic page, so a shared temp
  // file would interleave.
  std::string a(1 << 20, 'A');
  std::string b(1 << 20, 'B');
  const int kIterations = 40;
  std::vector<Status> results[2];
  std::thread ta([&] {
    for (int i = 0; i < kIterations; ++i) {
      results[0].push_back(WriteFileAtomic(path, a));
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < kIterations; ++i) {
      results[1].push_back(WriteFileAtomic(path, b));
    }
  });
  ta.join();
  tb.join();
  for (const auto& side : results) {
    for (const Status& status : side) ASSERT_TRUE(status.ok());
  }
  StatusOr<std::string> survivor = ReadFileBytes(path);
  ASSERT_TRUE(survivor.ok());
  EXPECT_TRUE(*survivor == a || *survivor == b)
      << "surviving file is a torn mix of both writers";
}

TEST(WriteFileAtomicTest, NoTempFilesLeftBehind) {
  // After successful writes the directory holds only the destination
  // (plus whatever else the suite left).
  ScopedTempDir dir;
  std::string path = dir.File("deepcrawl_atomic_clean.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "x").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "y").ok());
  // Any leftover temp would match <path>.tmp.<pid>.<seq>; probing the
  // first few sequence numbers for this process's pid is a smoke check
  // that renames consumed the temps.
  for (int seq = 0; seq < 8; ++seq) {
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(seq);
    EXPECT_FALSE(ReadFileBytes(tmp).ok()) << tmp;
  }
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

TEST(CheckpointGoldenTest, WriterPrimitivesAreLittleEndian) {
  CheckpointWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU32(0x01020304u);
  writer.WriteU64(0x0102030405060708ull);
  writer.WriteDouble(1.0);  // IEEE-754 bits 0x3ff0000000000000
  writer.WriteString("hi");
  EXPECT_EQ(Hex(writer.buffer()),
            "ab"
            "04030201"
            "0807060504030201"
            "000000000000f03f"
            "02000000"
            "6869");
}

TEST(CheckpointGoldenTest, VarintsAreLeb128) {
  CheckpointWriter writer;
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{300}, ~uint64_t{0}}) {
    writer.WriteVarint(v);
  }
  EXPECT_EQ(Hex(writer.buffer()),
            "00"
            "7f"
            "8001"
            "ac02"
            "ffffffffffffffffff01");
  CheckpointReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadVarint(), 0u);
  EXPECT_EQ(reader.ReadVarint(), 127u);
  EXPECT_EQ(reader.ReadVarint(), 128u);
  EXPECT_EQ(reader.ReadVarint(), 300u);
  EXPECT_EQ(reader.ReadVarint(), ~uint64_t{0});
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CheckpointReaderTest, MalformedVarintsAreRejected) {
  // Truncated, non-minimal, and past 64 bits.
  for (std::string_view bytes :
       {std::string_view("\x80", 1), std::string_view("\x80\x00", 2),
        std::string_view("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", 10)}) {
    CheckpointReader reader(bytes);
    reader.ReadVarint();
    EXPECT_FALSE(reader.ok()) << Hex(bytes);
  }
  // A varint count larger than the bytes behind it.
  CheckpointWriter writer;
  writer.WriteVarint(3);
  writer.WriteU8(0);
  writer.WriteU8(0);
  CheckpointReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadVarintCount(1), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(CheckpointGoldenTest, FrameCheckpointHeaderAndFooter) {
  EXPECT_EQ(Hex(FrameCheckpoint("abc", 6)),
            "4443504b"           // magic "DCPK"
            "06000000"           // u32 version
            "0300000000000000"   // u64 payload size
            "616263"             // payload
            "4b57410519a21fe7");  // u64 FNV-1a of the payload
}

}  // namespace
}  // namespace deepcrawl
