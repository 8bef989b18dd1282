// Round-trip tests for the wire protocol (src/net/frame.h): every
// message type, every StatusCode (retry-after hint included), and the
// FrameAssembler's incremental reassembly, plus golden bytes for one
// request and one response frame at kWireProtocolVersion.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/net/frame.h"
#include "src/util/checkpoint_io.h"
#include "src/util/status.h"

namespace deepcrawl {
namespace {

const StatusCode kAllCodes[] = {
    StatusCode::kOk,
    StatusCode::kInvalidArgument,
    StatusCode::kNotFound,
    StatusCode::kOutOfRange,
    StatusCode::kFailedPrecondition,
    StatusCode::kAlreadyExists,
    StatusCode::kResourceExhausted,
    StatusCode::kInternal,
    StatusCode::kUnavailable,
    StatusCode::kDeadlineExceeded,
};

// Extracts the single frame body out of an encoded frame.
std::string BodyOf(const std::string& frame) {
  FrameAssembler assembler;
  assembler.Append(frame);
  std::string_view body;
  StatusOr<bool> got = assembler.Next(&body);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.ok() && got.value());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return std::string(body);
}

TEST(NetFrameTest, WireStatusCodeRoundTripsEveryCode) {
  for (StatusCode code : kAllCodes) {
    uint8_t wire = WireStatusCode(code);
    StatusOr<StatusCode> back = StatusCodeFromWire(wire);
    ASSERT_TRUE(back.ok()) << StatusCodeToString(code);
    EXPECT_EQ(back.value(), code) << StatusCodeToString(code);
  }
  // The mapping must be injective, or two statuses would collide on
  // the wire.
  std::vector<uint8_t> seen;
  for (StatusCode code : kAllCodes) {
    uint8_t wire = WireStatusCode(code);
    for (uint8_t other : seen) EXPECT_NE(wire, other);
    seen.push_back(wire);
  }
}

TEST(NetFrameTest, UnknownWireStatusCodeRejected) {
  EXPECT_FALSE(StatusCodeFromWire(200).ok());
  EXPECT_FALSE(StatusCodeFromWire(255).ok());
}

TEST(NetFrameTest, StatusRoundTripsEveryVariant) {
  for (StatusCode code : kAllCodes) {
    for (bool with_retry : {false, true}) {
      Status original = code == StatusCode::kOk
                            ? Status::OK()
                            : Status(code, std::string("reason for ") +
                                               StatusCodeToString(code));
      if (with_retry && !original.ok()) {
        original = original.WithRetryAfter(17);
      }
      CheckpointWriter writer;
      EncodeStatus(writer, original);
      CheckpointReader reader(writer.buffer());
      Status decoded = DecodeStatus(reader);
      ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
      EXPECT_EQ(decoded.code(), original.code());
      EXPECT_EQ(decoded.message(), original.message());
      EXPECT_EQ(decoded.retry_after_rounds(), original.retry_after_rounds());
    }
  }
}

TEST(NetFrameTest, HelloRoundTrips) {
  StatusOr<WireRequest> decoded = DecodeRequest(BodyOf(EncodeHelloFrame()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireMessageType::kHello);
}

TEST(NetFrameTest, EveryFetchFormRoundTrips) {
  WireRequest by_value;
  by_value.type = WireMessageType::kFetchPage;
  by_value.request_id = 42;
  by_value.value = 7;
  by_value.page_number = 3;

  WireRequest keyword_of;
  keyword_of.type = WireMessageType::kFetchPageKeywordOf;
  keyword_of.request_id = 46;
  keyword_of.value = 99;

  for (const WireRequest& original : {by_value, keyword_of}) {
    SCOPED_TRACE(static_cast<int>(original.type));
    StatusOr<WireRequest> decoded =
        DecodeRequest(BodyOf(EncodeRequestFrame(original)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, original.type);
    EXPECT_EQ(decoded->request_id, original.request_id);
    EXPECT_EQ(decoded->value, original.value);
    EXPECT_EQ(decoded->page_number, original.page_number);
  }
}

// Type bytes 4-6 (the text, keyword-string and conjunctive fetches) are
// retired: a body carrying one is refused like any other byte that
// names no client message, whatever follows it.
TEST(NetFrameTest, RetiredRequestTypesRefused) {
  WireRequest request;
  request.request_id = 5;
  request.value = 42;
  const std::string body = BodyOf(EncodeRequestFrame(request));
  for (uint8_t retired : {4, 5, 6}) {
    SCOPED_TRACE(static_cast<int>(retired));
    std::string forged = body;
    forged[0] = static_cast<char>(retired);
    StatusOr<WireRequest> decoded = DecodeRequest(forged);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(
                  "unexpected client message type " +
                  std::to_string(retired)),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(NetFrameTest, ServerInfoRoundTrips) {
  WireServerInfo info;
  info.options.page_size = 25;
  info.options.result_limit = 1000;
  info.options.reports_total_count = false;
  info.num_values = 11;  // two bitmap bytes, top bits unused
  info.queriable_bitmap = {0b10110101, 0b00000101};

  StatusOr<WireServerMessage> decoded =
      DecodeServerMessage(BodyOf(EncodeServerInfoFrame(info)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireMessageType::kServerInfo);
  EXPECT_EQ(decoded->info.options.page_size, info.options.page_size);
  EXPECT_EQ(decoded->info.options.result_limit, info.options.result_limit);
  EXPECT_EQ(decoded->info.options.reports_total_count,
            info.options.reports_total_count);
  EXPECT_EQ(decoded->info.num_values, info.num_values);
  EXPECT_EQ(decoded->info.queriable_bitmap, info.queriable_bitmap);
  for (ValueId v = 0; v < info.num_values; ++v) {
    EXPECT_EQ(decoded->info.IsQueriable(v), info.IsQueriable(v)) << v;
  }
  EXPECT_FALSE(decoded->info.IsQueriable(info.num_values));
  EXPECT_FALSE(decoded->info.IsQueriable(kInvalidValueId));
}

TEST(NetFrameTest, OkPageRoundTrips) {
  std::vector<ValueId> rec0 = {10, 20, 30};
  std::vector<ValueId> rec1 = {40};
  std::vector<ValueId> rec2 = {50, 60};
  ResultPage page;
  page.records.push_back({101, rec0});
  page.records.push_back({102, rec1});
  page.records.push_back({103, rec2});
  page.page_number = 5;
  page.total_matches = 77;
  page.has_more = true;

  StatusOr<WireServerMessage> decoded = DecodeServerMessage(
      BodyOf(EncodeResponseFrame(321, StatusOr<ResultPage>(page))));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireMessageType::kPageResult);
  EXPECT_EQ(decoded->request_id, 321u);
  ASSERT_TRUE(decoded->status.ok());
  const ResultPage& got = decoded->result.page;
  ASSERT_EQ(got.records.size(), page.records.size());
  for (size_t i = 0; i < page.records.size(); ++i) {
    EXPECT_EQ(got.records[i].id, page.records[i].id);
    EXPECT_EQ(std::vector<ValueId>(got.records[i].values.begin(),
                                   got.records[i].values.end()),
              std::vector<ValueId>(page.records[i].values.begin(),
                                   page.records[i].values.end()));
  }
  EXPECT_EQ(got.page_number, page.page_number);
  EXPECT_EQ(got.total_matches, page.total_matches);
  EXPECT_EQ(got.has_more, page.has_more);
}

// A page record the crawl's store cannot hold is malformed on the wire:
// one with no values, or with id kInvalidRecordId.
TEST(NetFrameTest, PageRecordWithoutValuesIsRejected) {
  std::vector<ValueId> good = {10, 20};
  std::vector<ValueId> empty = {};
  ResultPage page;
  page.records.push_back({101, good});
  page.records.push_back({102, empty});
  StatusOr<WireServerMessage> decoded = DecodeServerMessage(
      BodyOf(EncodeResponseFrame(7, StatusOr<ResultPage>(page))));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("record without values"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(NetFrameTest, PageRecordWithInvalidIdIsRejected) {
  std::vector<ValueId> values = {10, 20};
  ResultPage page;
  page.records.push_back({kInvalidRecordId, values});
  StatusOr<WireServerMessage> decoded = DecodeServerMessage(
      BodyOf(EncodeResponseFrame(7, StatusOr<ResultPage>(page))));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("record id out of range"),
            std::string::npos)
      << decoded.status().ToString();

  // The largest valid id still decodes.
  page.records[0].id = kInvalidRecordId - 1;
  decoded = DecodeServerMessage(
      BodyOf(EncodeResponseFrame(7, StatusOr<ResultPage>(page))));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->result.page.records[0].id, kInvalidRecordId - 1);
}

TEST(NetFrameTest, AbsentTotalMatchesRoundTrips) {
  ResultPage page;
  page.page_number = 0;
  page.total_matches = std::nullopt;
  StatusOr<WireServerMessage> decoded = DecodeServerMessage(
      BodyOf(EncodeResponseFrame(1, StatusOr<ResultPage>(page))));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->result.page.total_matches.has_value());
  EXPECT_FALSE(decoded->result.page.has_more);
}

TEST(NetFrameTest, ErrorResponseRoundTripsEveryCode) {
  for (StatusCode code : kAllCodes) {
    if (code == StatusCode::kOk) continue;
    Status original = Status(code, "injected").WithRetryAfter(9);
    StatusOr<WireServerMessage> decoded = DecodeServerMessage(
        BodyOf(EncodeResponseFrame(7, StatusOr<ResultPage>(original))));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, WireMessageType::kPageResult);
    EXPECT_EQ(decoded->request_id, 7u);
    EXPECT_EQ(decoded->status.code(), code);
    EXPECT_EQ(decoded->status.message(), "injected");
    EXPECT_EQ(decoded->status.retry_after_rounds(),
              original.retry_after_rounds());
  }
}

TEST(NetFrameTest, GoAwayRoundTrips) {
  Status shed = Status::Unavailable("connection cap").WithRetryAfter(4);
  StatusOr<WireServerMessage> decoded =
      DecodeServerMessage(BodyOf(EncodeGoAwayFrame(shed)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, WireMessageType::kGoAway);
  EXPECT_EQ(decoded->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded->status.retry_after_rounds(), 4u);
}

TEST(NetFrameTest, AssemblerSplitsBackToBackFrames) {
  std::string stream = EncodeHelloFrame();
  WireRequest request;
  request.type = WireMessageType::kFetchPage;
  request.request_id = 9;
  request.value = 3;
  stream += EncodeRequestFrame(request);
  stream += EncodeHelloFrame();

  FrameAssembler assembler;
  assembler.Append(stream);
  std::string_view body;
  int frames = 0;
  while (true) {
    StatusOr<bool> got = assembler.Next(&body);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.value()) break;
    ++frames;
  }
  EXPECT_EQ(frames, 3);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetFrameTest, AssemblerHandlesByteAtATimeDelivery) {
  WireRequest request;
  request.type = WireMessageType::kFetchPageKeywordOf;
  request.request_id = 1234567890123ull;
  request.value = 123;
  request.page_number = 4;
  std::string frame = EncodeRequestFrame(request);

  FrameAssembler assembler;
  std::string_view body;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    assembler.Append(std::string_view(frame).substr(i, 1));
    StatusOr<bool> got = assembler.Next(&body);
    ASSERT_TRUE(got.ok()) << "byte " << i << ": " << got.status().ToString();
    ASSERT_FALSE(got.value()) << "frame completed early at byte " << i;
  }
  assembler.Append(std::string_view(frame).substr(frame.size() - 1));
  StatusOr<bool> got = assembler.Next(&body);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value());
  StatusOr<WireRequest> decoded = DecodeRequest(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, request.request_id);
  EXPECT_EQ(decoded->value, request.value);
  EXPECT_EQ(decoded->page_number, request.page_number);
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

TEST(NetFrameGoldenTest, FetchPageRequestFrameBytes) {
  ASSERT_EQ(kWireProtocolVersion, 1u);
  WireRequest request;
  request.type = WireMessageType::kFetchPage;
  request.request_id = 5;
  request.value = 42;
  request.page_number = 1;
  EXPECT_EQ(Hex(EncodeRequestFrame(request)),
            "29000000"            // u32 frame length (41)
            "4443504b"            // magic "DCPK"
            "01000000"            // u32 wire version
            "1100000000000000"    // u64 body size (17)
            "03"                  // kFetchPage
            "0500000000000000"    // u64 request id
            "2a000000"            // u32 value
            "01000000"            // u32 page number
            "6c03b62bed1a5562");  // u64 FNV-1a of the body
}

TEST(NetFrameGoldenTest, PageResultFrameBytes) {
  ASSERT_EQ(kWireProtocolVersion, 1u);
  std::vector<ValueId> rec0 = {10, 20, 30};
  std::vector<ValueId> rec1 = {40};
  std::vector<ValueId> rec2 = {};
  ResultPage page;
  page.records.push_back({101, rec0});
  page.records.push_back({102, rec1});
  page.records.push_back({103, rec2});
  page.page_number = 2;
  page.total_matches = 3;
  page.has_more = true;
  EXPECT_EQ(Hex(EncodeResponseFrame(9, StatusOr<ResultPage>(page))),
            "6d000000"                    // u32 frame length (109)
            "4443504b"                    // magic "DCPK"
            "01000000"                    // u32 wire version
            "5500000000000000"            // u64 body size (85)
            "08"                          // kPageResult
            "0900000000000000"            // u64 request id
            "00" "00000000" "00"          // status: code, message, no hint
            "02000000"                    // u32 page number
            "01" "03000000"               // total_matches present, 3
            "01"                          // has_more
            "0300000000000000"            // u64 record count
            "65000000" "0300000000000000"
            "0a000000" "14000000" "1e000000"
            "66000000" "0100000000000000" "28000000"
            "67000000" "0000000000000000"
            "62eef985e1425d41");          // u64 FNV-1a of the body
}

}  // namespace
}  // namespace deepcrawl
