#include "src/net/frame.h"

#include <cstddef>
#include <utility>

namespace deepcrawl {
namespace {

// Minimum bytes of the inner framing (magic + version + size + checksum)
// — any announced frame length below this is forged.
constexpr uint32_t kInnerFramingBytes = 4 + 4 + 8 + 8;

// Smallest possible encoding of one record (u32 id + u64 value count):
// the divisor ReadCount uses to bound a forged record count.
constexpr size_t kMinRecordBytes = 4 + 8;

void EncodeServerOptions(CheckpointWriter& writer,
                         const ServerOptions& options) {
  writer.WriteU32(options.page_size);
  writer.WriteU32(options.result_limit);
  writer.WriteU8(options.reports_total_count ? 1 : 0);
  writer.WriteU64(options.queriable_attributes.size());
  for (AttributeId attr : options.queriable_attributes) {
    writer.WriteU32(attr);
  }
}

ServerOptions DecodeServerOptions(CheckpointReader& reader) {
  ServerOptions options;
  options.page_size = reader.ReadU32();
  options.result_limit = reader.ReadU32();
  uint8_t reports = reader.ReadU8();
  if (reports > 1) reader.MarkCorrupt("reports_total_count flag not 0/1");
  options.reports_total_count = reports == 1;
  uint64_t count = reader.ReadCount(4);
  options.queriable_attributes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t attr = reader.ReadU32();
    if (attr > UINT16_MAX) reader.MarkCorrupt("attribute id out of range");
    options.queriable_attributes.push_back(static_cast<AttributeId>(attr));
  }
  return options;
}

void EncodePage(CheckpointWriter& writer, const ResultPage& page) {
  writer.WriteU32(page.page_number);
  writer.WriteU8(page.total_matches.has_value() ? 1 : 0);
  if (page.total_matches.has_value()) writer.WriteU32(*page.total_matches);
  writer.WriteU8(page.has_more ? 1 : 0);
  writer.WriteU64(page.records.size());
  for (const ReturnedRecord& record : page.records) {
    writer.WriteU32(record.id);
    writer.WriteU64(record.values.size());
    for (ValueId value : record.values) writer.WriteU32(value);
  }
}

DecodedPage DecodePage(CheckpointReader& reader) {
  DecodedPage out;
  out.page.page_number = reader.ReadU32();
  uint8_t has_total = reader.ReadU8();
  if (has_total > 1) reader.MarkCorrupt("total_matches flag not 0/1");
  if (has_total == 1) out.page.total_matches = reader.ReadU32();
  uint8_t has_more = reader.ReadU8();
  if (has_more > 1) reader.MarkCorrupt("has_more flag not 0/1");
  out.page.has_more = has_more == 1;
  uint64_t num_records = reader.ReadCount(kMinRecordBytes);
  out.page.records.reserve(num_records);
  // Every value takes 4 of the bytes that remain, so this reservation
  // bounds the page's values: out.values never reallocates, and each
  // record's span is planted as soon as its values are read — one pass.
  out.values.reserve(reader.remaining() / 4);
  for (uint64_t i = 0; i < num_records; ++i) {
    ReturnedRecord record;
    record.id = reader.ReadU32();
    if (record.id == kInvalidRecordId) {
      reader.MarkCorrupt("record id out of range");
    }
    uint64_t num_values = reader.ReadCount(4);
    if (num_values == 0) reader.MarkCorrupt("record without values");
    if (!reader.ok()) break;
    const size_t first = out.values.size();
    for (uint64_t j = 0; j < num_values; ++j) {
      out.values.push_back(reader.ReadU32());
    }
    record.values =
        std::span<const ValueId>(out.values.data() + first, num_values);
    out.page.records.push_back(record);
  }
  if (!reader.ok()) return DecodedPage{};
  return out;
}

// Validates that `type` names a fetch-request form.
bool IsFetchType(WireMessageType type) {
  switch (type) {
    case WireMessageType::kFetchPage:
    case WireMessageType::kFetchPageKeywordOf:
      return true;
    default:
      return false;
  }
}

// Opens one wire frame at the end of `body`'s buffer: the u32 length
// prefix and the inner header are reserved here and patched by
// EndWireFrame once the body is written, so a frame is encoded in one
// pass with no copy of its body. Returns where the frame starts.
size_t BeginWireFrame(CheckpointWriter& body) {
  const size_t frame_start = body.buffer().size();
  body.WriteU32(0);  // frame length, patched by EndWireFrame
  body.BeginFrame(kWireProtocolVersion);
  return frame_start;
}

void EndWireFrame(CheckpointWriter& body, size_t frame_start) {
  body.EndFrame(frame_start + 4);
  body.PatchU32(frame_start, static_cast<uint32_t>(body.buffer().size() -
                                                   frame_start - 4));
}

}  // namespace

uint8_t WireStatusCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:                 return 0;
    case StatusCode::kInvalidArgument:    return 1;
    case StatusCode::kNotFound:           return 2;
    case StatusCode::kOutOfRange:         return 3;
    case StatusCode::kFailedPrecondition: return 4;
    case StatusCode::kAlreadyExists:      return 5;
    case StatusCode::kResourceExhausted:  return 6;
    case StatusCode::kInternal:           return 7;
    case StatusCode::kUnavailable:        return 8;
    case StatusCode::kDeadlineExceeded:   return 9;
  }
  return 7;  // unreachable; map to kInternal
}

StatusOr<StatusCode> StatusCodeFromWire(uint8_t wire_code) {
  switch (wire_code) {
    case 0: return StatusCode::kOk;
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kNotFound;
    case 3: return StatusCode::kOutOfRange;
    case 4: return StatusCode::kFailedPrecondition;
    case 5: return StatusCode::kAlreadyExists;
    case 6: return StatusCode::kResourceExhausted;
    case 7: return StatusCode::kInternal;
    case 8: return StatusCode::kUnavailable;
    case 9: return StatusCode::kDeadlineExceeded;
    default:
      return Status::InvalidArgument("unknown wire status code " +
                                     std::to_string(wire_code));
  }
}

void EncodeStatus(CheckpointWriter& writer, const Status& status) {
  writer.WriteU8(WireStatusCode(status.code()));
  writer.WriteString(status.message());
  writer.WriteU8(status.retry_after_rounds().has_value() ? 1 : 0);
  if (status.retry_after_rounds().has_value()) {
    writer.WriteU32(*status.retry_after_rounds());
  }
}

Status DecodeStatus(CheckpointReader& reader) {
  uint8_t wire_code = reader.ReadU8();
  std::string message = reader.ReadString();
  uint8_t has_retry = reader.ReadU8();
  if (has_retry > 1) reader.MarkCorrupt("retry_after flag not 0/1");
  uint32_t retry_after = has_retry == 1 ? reader.ReadU32() : 0;
  StatusOr<StatusCode> code = StatusCodeFromWire(wire_code);
  if (!code.ok()) {
    reader.MarkCorrupt(code.status().message());
    return Status::OK();
  }
  Status status(*code, std::move(message));
  if (has_retry == 1) status = status.WithRetryAfter(retry_after);
  return status;
}

void AppendHelloFrame(std::string& out) {
  CheckpointWriter body(out);
  const size_t frame = BeginWireFrame(body);
  body.WriteU8(static_cast<uint8_t>(WireMessageType::kHello));
  EndWireFrame(body, frame);
}

void AppendServerInfoFrame(std::string& out, const WireServerInfo& info) {
  CheckpointWriter body(out);
  const size_t frame = BeginWireFrame(body);
  body.WriteU8(static_cast<uint8_t>(WireMessageType::kServerInfo));
  EncodeServerOptions(body, info.options);
  body.WriteU32(info.num_values);
  body.WriteString(std::string_view(
      reinterpret_cast<const char*>(info.queriable_bitmap.data()),
      info.queriable_bitmap.size()));
  EndWireFrame(body, frame);
}

void AppendRequestFrame(std::string& out, const WireRequest& request) {
  DEEPCRAWL_CHECK(IsFetchType(request.type))
      << "not a fetch request type: " << static_cast<int>(request.type);
  CheckpointWriter body(out);
  const size_t frame = BeginWireFrame(body);
  body.WriteU8(static_cast<uint8_t>(request.type));
  body.WriteU64(request.request_id);
  body.WriteU32(request.value);
  body.WriteU32(request.page_number);
  EndWireFrame(body, frame);
}

void AppendResponseFrame(std::string& out, uint64_t request_id,
                         const StatusOr<ResultPage>& result) {
  CheckpointWriter body(out);
  const size_t frame = BeginWireFrame(body);
  body.WriteU8(static_cast<uint8_t>(WireMessageType::kPageResult));
  body.WriteU64(request_id);
  EncodeStatus(body, result.status());
  if (result.ok()) EncodePage(body, *result);
  EndWireFrame(body, frame);
}

void AppendGoAwayFrame(std::string& out, const Status& status) {
  DEEPCRAWL_CHECK(!status.ok()) << "GoAway must carry the shed reason";
  CheckpointWriter body(out);
  const size_t frame = BeginWireFrame(body);
  body.WriteU8(static_cast<uint8_t>(WireMessageType::kGoAway));
  EncodeStatus(body, status);
  EndWireFrame(body, frame);
}

std::string EncodeHelloFrame() {
  std::string frame;
  AppendHelloFrame(frame);
  return frame;
}

std::string EncodeServerInfoFrame(const WireServerInfo& info) {
  std::string frame;
  AppendServerInfoFrame(frame, info);
  return frame;
}

std::string EncodeRequestFrame(const WireRequest& request) {
  std::string frame;
  AppendRequestFrame(frame, request);
  return frame;
}

std::string EncodeResponseFrame(uint64_t request_id,
                                const StatusOr<ResultPage>& result) {
  std::string frame;
  AppendResponseFrame(frame, request_id, result);
  return frame;
}

std::string EncodeGoAwayFrame(const Status& status) {
  std::string frame;
  AppendGoAwayFrame(frame, status);
  return frame;
}

StatusOr<WireRequest> DecodeRequest(std::string_view body) {
  CheckpointReader reader(body);
  WireRequest request;
  uint8_t raw_type = reader.ReadU8();
  request.type = static_cast<WireMessageType>(raw_type);
  if (request.type == WireMessageType::kHello) {
    if (!reader.ok() || !reader.AtEnd()) {
      return Status::InvalidArgument("malformed hello body");
    }
    return request;
  }
  if (!IsFetchType(request.type)) {
    return Status::InvalidArgument("unexpected client message type " +
                                   std::to_string(raw_type));
  }
  request.request_id = reader.ReadU64();
  request.value = reader.ReadU32();
  request.page_number = reader.ReadU32();
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request body");
  }
  return request;
}

StatusOr<WireServerMessage> DecodeServerMessage(std::string_view body) {
  CheckpointReader reader(body);
  WireServerMessage message;
  uint8_t raw_type = reader.ReadU8();
  message.type = static_cast<WireMessageType>(raw_type);
  switch (message.type) {
    case WireMessageType::kServerInfo: {
      message.info.options = DecodeServerOptions(reader);
      message.info.num_values = reader.ReadU32();
      std::string bitmap = reader.ReadString();
      if (reader.ok() && bitmap.size() != (message.info.num_values + 7) / 8) {
        reader.MarkCorrupt("queriable bitmap size mismatch");
      }
      message.info.queriable_bitmap.assign(bitmap.begin(), bitmap.end());
      break;
    }
    case WireMessageType::kPageResult: {
      message.request_id = reader.ReadU64();
      message.status = DecodeStatus(reader);
      if (reader.ok() && message.status.ok()) {
        message.result = DecodePage(reader);
      }
      break;
    }
    case WireMessageType::kGoAway: {
      message.status = DecodeStatus(reader);
      if (reader.ok() && message.status.ok()) {
        reader.MarkCorrupt("GoAway without a shed reason");
      }
      break;
    }
    default:
      return Status::InvalidArgument("unexpected server message type " +
                                     std::to_string(raw_type));
  }
  DEEPCRAWL_RETURN_IF_ERROR(reader.status());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after server message");
  }
  return message;
}

void FrameAssembler::Append(std::string_view bytes) {
  // Restart at the front once every frame was consumed (the common
  // case: a read delivers whole frames), else compact once the consumed
  // prefix dominates, so long-lived connections don't grow the buffer
  // without bound. Either way earlier Next views die here.
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > 4096 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

StatusOr<bool> FrameAssembler::Next(std::string_view* body) {
  if (failed_.has_value()) return *failed_;
  size_t available = buffer_.size() - pos_;
  if (available < 4) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
  uint32_t frame_len = static_cast<uint32_t>(p[0]) |
                       (static_cast<uint32_t>(p[1]) << 8) |
                       (static_cast<uint32_t>(p[2]) << 16) |
                       (static_cast<uint32_t>(p[3]) << 24);
  // Bound-check the announced length BEFORE waiting for the bytes: a
  // forged length must not make us buffer toward a 4 GiB frame.
  if (frame_len < kInnerFramingBytes || frame_len > kMaxWireFrameBytes) {
    failed_ = Status::InvalidArgument("frame length " +
                                      std::to_string(frame_len) +
                                      " outside protocol bounds");
    return *failed_;
  }
  if (available < 4 + static_cast<size_t>(frame_len)) return false;
  std::string_view inner(buffer_.data() + pos_ + 4, frame_len);
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(inner, kWireProtocolVersion);
  if (!payload.ok()) {
    failed_ = payload.status();
    return *failed_;
  }
  *body = *payload;
  pos_ += 4 + static_cast<size_t>(frame_len);
  return true;
}

}  // namespace deepcrawl
