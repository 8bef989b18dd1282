// Wire protocol of the WebDB TCP server (DESIGN.md §13).
//
// Every message travels as one length-prefixed frame:
//
//   offset 0   u32 frame length N (bytes that follow, little-endian)
//          4   N bytes: the checkpoint_io framing around the body —
//              magic "DCPK" | u32 wire version | u64 body size |
//              body | u64 FNV-1a checksum of the body
//
// The outer length prefix delimits frames on the byte stream; the inner
// checkpoint_io framing (src/util/checkpoint_io.h) carries the magic,
// version, and checksum, so a truncated, bit-flipped, or forged frame is
// rejected with a clean Status — the same corruption guarantees the
// checkpoint files enjoy, applied per message. Bodies are encoded with
// CheckpointWriter and decoded with the sticky-failure bounds-checked
// CheckpointReader, so corrupt input can produce an error, never a
// crash or an out-of-bounds read (fuzzed in tests/net_fuzz_test.cc).
//
// Cost per frame: one encode pass straight into the destination buffer
// (Append*Frame below), and no copy on decode — FrameAssembler::Next
// hands out a view into its buffer, valid until the next Append, so
// each side decodes a frame before reading more bytes. Golden bytes
// for both directions are pinned in tests/net_frame_test.cc.
//
// Conversation shape: the client opens with kHello and the server
// answers kServerInfo (interface schema: ServerOptions plus the
// queriable-value bitmap). After that the client sends fetch requests —
// any number may be in flight (pipelining); the server answers each
// with a kPageResult carrying the request's id, IN REQUEST ORDER per
// connection. kGoAway is the server's graceful-shedding message: sent
// to a brand-new connection when the connection cap is reached, it maps
// to a retryable kUnavailable on the client.
//
// Every StatusCode crosses the wire faithfully, including the
// Status::WithRetryAfter hint rate-limiting sources attach — the
// crawler's retry/backoff machinery behaves identically against a
// remote source and an in-process one (round-trip tested per variant in
// tests/net_frame_test.cc).

#ifndef DEEPCRAWL_NET_FRAME_H_
#define DEEPCRAWL_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/relation/types.h"
#include "src/server/query_interface.h"
#include "src/util/checkpoint_io.h"
#include "src/util/status.h"

namespace deepcrawl {

// Bump on ANY body-layout change; peers reject other versions.
inline constexpr uint32_t kWireProtocolVersion = 1;

// Ceiling on one frame (length prefix excluded). A forged length field
// can never drive a larger allocation; real pages are far smaller.
inline constexpr uint32_t kMaxWireFrameBytes = 16u << 20;

enum class WireMessageType : uint8_t {
  kHello = 1,               // client -> server: protocol handshake
  kServerInfo = 2,          // server -> client: interface schema
  kFetchPage = 3,           // client -> server: FetchPage
  // 4-6 are retired (text, keyword-string and conjunctive fetches); a
  // server refuses them as unexpected client messages.
  kFetchPageKeywordOf = 7,  // client -> server: FetchPageKeywordOf
  kPageResult = 8,          // server -> client: response to any fetch
  kGoAway = 9,              // server -> client: shed, retry later
};

// --- status over the wire --------------------------------------------

// Stable on-wire code for every StatusCode (independent of the enum's
// in-memory numbering, so reordering the enum cannot silently change
// the protocol).
uint8_t WireStatusCode(StatusCode code);
StatusOr<StatusCode> StatusCodeFromWire(uint8_t wire_code);

// Serializes code, message, and the optional retry-after hint.
void EncodeStatus(CheckpointWriter& writer, const Status& status);
// Decode failures latch `reader`; check reader.status() after.
Status DecodeStatus(CheckpointReader& reader);

// --- messages ---------------------------------------------------------

// A fetch request: the crawl's two query forms, a single-value
// equality query (kFetchPage) and the keyword box over a value's text
// (kFetchPageKeywordOf), share one layout — request id, value id, page
// number. A kHello decodes into one too, with only `type` meaningful.
struct WireRequest {
  WireMessageType type = WireMessageType::kFetchPage;
  uint64_t request_id = 0;
  ValueId value = kInvalidValueId;
  uint32_t page_number = 0;
};

// The server's interface schema, shipped once per connection in
// kServerInfo so the client can answer options() and IsQueriableValue()
// locally (the selector probes queriability on its hot path; a network
// round trip per probe would be absurd).
struct WireServerInfo {
  ServerOptions options;
  uint32_t num_values = 0;
  std::vector<uint8_t> queriable_bitmap;  // bit v: value v is queriable

  bool IsQueriable(ValueId value) const {
    return value < num_values &&
           (queriable_bitmap[value >> 3] >> (value & 7u)) & 1u;
  }
};

// A decoded result page plus the storage its record spans point into.
// Movable: vector heap buffers are stable across moves, so the spans
// stay valid. Keep the struct alive as long as the page is in use.
struct DecodedPage {
  ResultPage page;
  std::vector<ValueId> values;  // all records' values, concatenated
};

// Any message a server sends; `type` selects the meaningful fields.
struct WireServerMessage {
  WireMessageType type = WireMessageType::kPageResult;
  WireServerInfo info;        // kServerInfo
  uint64_t request_id = 0;    // kPageResult
  Status status;              // kPageResult (fetch outcome) / kGoAway
  DecodedPage result;         // kPageResult when status.ok()
};

// --- encoding ---------------------------------------------------------

// Each Append*Frame encodes one whole frame onto the end of `out` (a
// connection's send buffer or outbox) in one pass: the length prefix
// and the inner header are reserved first and patched in place once
// the body is written, and the checksum is appended last — no body is
// copied after it is written.
void AppendHelloFrame(std::string& out);
void AppendServerInfoFrame(std::string& out, const WireServerInfo& info);
void AppendRequestFrame(std::string& out, const WireRequest& request);
// `result` is the backend's verbatim fetch outcome — error statuses
// (fault injections included) cross the wire unchanged.
void AppendResponseFrame(std::string& out, uint64_t request_id,
                         const StatusOr<ResultPage>& result);
void AppendGoAwayFrame(std::string& out, const Status& status);

// The same frames as fresh strings (handshake constants, tests).
std::string EncodeHelloFrame();
std::string EncodeServerInfoFrame(const WireServerInfo& info);
std::string EncodeRequestFrame(const WireRequest& request);
std::string EncodeResponseFrame(uint64_t request_id,
                                const StatusOr<ResultPage>& result);
std::string EncodeGoAwayFrame(const Status& status);

// --- decoding ---------------------------------------------------------

// Server side: decodes a request body (kHello or any fetch form).
StatusOr<WireRequest> DecodeRequest(std::string_view body);
// Client side: decodes a server message body. A page record with no
// values or with id kInvalidRecordId is malformed (the crawl's store
// can hold neither); value ids are bounded by the connection, which
// knows the handshake's num_values (NetConnection::NextMessage).
StatusOr<WireServerMessage> DecodeServerMessage(std::string_view body);

// Incremental frame extraction from a byte stream. Feed arbitrary
// chunks with Append; Next yields complete, checksum-verified frame
// bodies. Any malformed frame (bad length, magic, version, size, or
// checksum) is a STREAM error: framing sync is lost, so the connection
// must be closed — Next keeps returning the same error.
class FrameAssembler {
 public:
  void Append(std::string_view bytes);

  // True: `*body` views the next frame's body inside the assembler's
  // buffer — no copy. The view stays valid until the next Append (or
  // the assembler's destruction), so decode it before reading more
  // bytes. False: the stream holds no complete frame yet (feed more
  // bytes). Error: corrupt stream, close the connection.
  StatusOr<bool> Next(std::string_view* body);

  // Bytes buffered but not yet consumed by Next (diagnostics).
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;  // consumed prefix of buffer_
  std::optional<Status> failed_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_NET_FRAME_H_
