// Corruption suite for the wire protocol: every single-byte flip, every
// truncation point, forged lengths and checksums, and random garbage
// must come back as a clean Status (or "need more bytes") — never a
// crash, hang, or out-of-bounds access. Runs under ASan/UBSan via
// tools/check.sh pass 2, which is where an OOB read would actually
// trip.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace deepcrawl {
namespace {

// A representative response frame: an OK page with records, counts, and
// a has-more flag — the widest body layout the protocol has.
std::string SamplePageFrame() {
  std::vector<ValueId> rec0 = {10, 20, 30};
  std::vector<ValueId> rec1 = {40, 50};
  ResultPage page;
  page.records.push_back({7, rec0});
  page.records.push_back({8, rec1});
  page.page_number = 2;
  page.total_matches = 123;
  page.has_more = true;
  return EncodeResponseFrame(99, StatusOr<ResultPage>(page));
}

std::string SampleRequestFrame() {
  WireRequest request;
  request.type = WireMessageType::kFetchPageKeywordOf;
  request.request_id = 1234;
  request.value = 5;
  request.page_number = 1;
  return EncodeRequestFrame(request);
}

// Feeds `stream` to a fresh assembler and returns what happened. The
// contract under corruption: Next may report an error, or may want more
// bytes (a flipped length prefix can claim a longer frame) — but it
// must never produce a frame body that differs from what was sent,
// because the inner checksum covers every body byte.
enum class FeedOutcome { kError, kIncomplete, kFrame };

FeedOutcome Feed(const std::string& stream, std::string* body) {
  FrameAssembler assembler;
  assembler.Append(stream);
  std::string_view view;
  StatusOr<bool> got = assembler.Next(&view);
  if (!got.ok()) return FeedOutcome::kError;
  if (!got.value()) return FeedOutcome::kIncomplete;
  body->assign(view);  // the view dies with the assembler
  return FeedOutcome::kFrame;
}

TEST(NetFuzzTest, EveryByteFlipIsRejectedOrIncomplete) {
  for (const std::string& frame : {SamplePageFrame(), SampleRequestFrame()}) {
    for (size_t i = 0; i < frame.size(); ++i) {
      for (uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::string mutated = frame;
        mutated[i] = static_cast<char>(
            static_cast<uint8_t>(mutated[i]) ^ mask);
        std::string body;
        FeedOutcome outcome = Feed(mutated, &body);
        // A flip anywhere — length prefix, magic, version, size, body,
        // checksum — can never yield a valid frame: the checksum guards
        // the body and the framing fields guard each other.
        EXPECT_NE(outcome, FeedOutcome::kFrame)
            << "byte " << i << " mask " << static_cast<int>(mask)
            << " produced a frame despite corruption";
      }
    }
  }
}

TEST(NetFuzzTest, EveryTruncationIsIncompleteNeverAccepted) {
  std::string frame = SamplePageFrame();
  for (size_t len = 0; len < frame.size(); ++len) {
    FrameAssembler assembler;
    assembler.Append(std::string_view(frame).substr(0, len));
    std::string_view body;
    StatusOr<bool> got = assembler.Next(&body);
    ASSERT_TRUE(got.ok()) << "truncation at " << len << " errored: "
                          << got.status().ToString();
    ASSERT_FALSE(got.value()) << "truncation at " << len << " accepted";
    // Delivering the remainder must complete the frame cleanly.
    assembler.Append(std::string_view(frame).substr(len));
    got = assembler.Next(&body);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value());
    StatusOr<WireServerMessage> decoded = DecodeServerMessage(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->request_id, 99u);
  }
}

TEST(NetFuzzTest, ForgedHugeLengthRejectedBeforeBuffering) {
  // A length prefix past the cap must fail immediately — long before
  // that many bytes arrive — so a forged length can never drive memory
  // growth.
  std::string stream(4, '\0');
  uint32_t forged = kMaxWireFrameBytes + 1;
  std::memcpy(stream.data(), &forged, 4);
  std::string body;
  EXPECT_EQ(Feed(stream, &body), FeedOutcome::kError);

  uint32_t worst = 0xFFFFFFFFu;
  std::memcpy(stream.data(), &worst, 4);
  EXPECT_EQ(Feed(stream, &body), FeedOutcome::kError);
}

TEST(NetFuzzTest, ForgedTinyLengthRejected) {
  // Lengths smaller than the inner framing can't hold a valid frame.
  for (uint32_t forged : {0u, 1u, 5u, 23u}) {
    std::string stream(4 + forged, '\0');
    std::memcpy(stream.data(), &forged, 4);
    std::string body;
    EXPECT_EQ(Feed(stream, &body), FeedOutcome::kError) << forged;
  }
}

TEST(NetFuzzTest, ForgedChecksumRejected) {
  std::string frame = SamplePageFrame();
  // The checksum is the trailing u64 of the inner frame.
  for (size_t i = frame.size() - 8; i < frame.size(); ++i) {
    std::string mutated = frame;
    mutated[i] = static_cast<char>(static_cast<uint8_t>(mutated[i]) + 1);
    std::string body;
    EXPECT_EQ(Feed(mutated, &body), FeedOutcome::kError) << i;
  }
}

TEST(NetFuzzTest, ErrorIsStickyAcrossSubsequentAppends) {
  std::string garbage = "this is not a frame at all, not even close!!";
  FrameAssembler assembler;
  assembler.Append(garbage);
  std::string_view body;
  StatusOr<bool> first = assembler.Next(&body);
  // Either an immediate error or an incomplete wait, depending on the
  // forged length those bytes happen to spell.
  if (first.ok()) return;
  // Once failed, a valid frame appended after the corruption must NOT
  // resurrect the stream: framing sync is gone for good.
  assembler.Append(SamplePageFrame());
  StatusOr<bool> second = assembler.Next(&body);
  EXPECT_FALSE(second.ok());
}

TEST(NetFuzzTest, RandomGarbageNeverCrashes) {
  Pcg32 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = 1 + rng.NextBounded(200);
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    std::string body;
    FeedOutcome outcome = Feed(garbage, &body);
    if (outcome == FeedOutcome::kFrame) {
      // Astronomically unlikely (needs a valid magic, version, size,
      // and matching FNV checksum) — but if it happens the decoders
      // must still fail cleanly rather than crash.
      (void)DecodeServerMessage(body);
      (void)DecodeRequest(body);
    }
  }
}

// The transport checksum protects against accidental corruption, but
// the decoders must also stand on their own against adversarial BODIES
// (a malicious peer computes a valid checksum over malicious bytes).
TEST(NetFuzzTest, DecodersSurviveEveryBodyByteFlip) {
  std::string request_frame = SampleRequestFrame();
  std::string response_frame = SamplePageFrame();
  std::string request_body, response_body;
  ASSERT_EQ(Feed(request_frame, &request_body), FeedOutcome::kFrame);
  ASSERT_EQ(Feed(response_frame, &response_body), FeedOutcome::kFrame);

  for (size_t i = 0; i < request_body.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::string mutated = request_body;
      mutated[i] =
          static_cast<char>(static_cast<uint8_t>(mutated[i]) ^ mask);
      // Must return (ok or error), never crash or read out of bounds.
      (void)DecodeRequest(mutated);
    }
  }
  for (size_t i = 0; i < response_body.size(); ++i) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::string mutated = response_body;
      mutated[i] =
          static_cast<char>(static_cast<uint8_t>(mutated[i]) ^ mask);
      (void)DecodeServerMessage(mutated);
    }
  }
}

TEST(NetFuzzTest, DecodersSurviveEveryBodyTruncation) {
  std::string response_frame = SamplePageFrame();
  std::string body;
  ASSERT_EQ(Feed(response_frame, &body), FeedOutcome::kFrame);
  for (size_t len = 0; len < body.size(); ++len) {
    StatusOr<WireServerMessage> decoded =
        DecodeServerMessage(std::string_view(body).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncated body of " << len << " accepted";
  }
  std::string request_frame = SampleRequestFrame();
  ASSERT_EQ(Feed(request_frame, &body), FeedOutcome::kFrame);
  for (size_t len = 0; len < body.size(); ++len) {
    StatusOr<WireRequest> decoded =
        DecodeRequest(std::string_view(body).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncated body of " << len << " accepted";
  }
}

TEST(NetFuzzTest, TrailingBytesAfterValidBodyRejected) {
  std::string body;
  ASSERT_EQ(Feed(SampleRequestFrame(), &body), FeedOutcome::kFrame);
  body.push_back('\0');
  EXPECT_FALSE(DecodeRequest(body).ok());
}

}  // namespace
}  // namespace deepcrawl
