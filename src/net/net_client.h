// Client side of the wire protocol (src/net/frame.h): a framed TCP
// connection, a QueryInterface adapter over it, and the pipelined
// network fetch executor that plugs into the crawl engine.
//
//   * NetConnection — one non-blocking socket plus a FrameAssembler:
//     connect + Hello/ServerInfo handshake, buffered sends, and both
//     blocking (poll-based) and non-blocking receive paths. bench_net
//     drives raw NetConnections directly.
//
//   * NetQueryClient — implements QueryInterface over a NetConnection,
//     so every selector, retry policy, and the whole crawl engine run
//     unchanged against a remote WebDB. options() and
//     IsQueriableValue() are answered locally from the handshake's
//     ServerInfo (schema + queriable-value bitmap); fetches are
//     blocking request/response rounds. Because the protocol is
//     read-only and idempotent, a dead connection is retried
//     transparently: reconnect with exponential backoff inside
//     `reconnect_window_ms`, retransmit, and surface kUnavailable once
//     the window is exhausted — which is how a crawl survives a server
//     kill/restart with its trace intact. A reachable-but-silent
//     server is bounded too: after `request_attempts` timed-out rounds
//     the last failure (kDeadlineExceeded/kUnavailable) is surfaced
//     instead of retrying forever (the engine's RetryPolicy paces any
//     attempts that do fail through).
//
//   * NetFetchExecutor — the CrawlEngine executor seam over sockets:
//     FetchWave round-robins the wave's requests over up to
//     `connections` NetConnections and PIPELINES each connection's
//     share in one burst — every frame encoded straight into the
//     connection's send buffer, handed to the kernel in one write —
//     then multiplexes with poll() until every slot has an answer. Its
//     lanes, pollfd array and send buffers are members reused across
//     waves, so the wave's bookkeeping allocates nothing once warm.
//     Responses fill their slot by request id, the
//     engine commits in selector-rank order as always, so the crawl
//     output stays a pure function of (seed, batch) no matter how
//     responses interleave across connections (differential-tested
//     against the in-process engine byte for byte).
//
// Page-lifetime contract: a returned ResultPage's record spans point
// into storage owned by the client (DecodedPage). Pages fetched
// through FetchWave stay valid until the next FetchWave begins (which
// purges the previous wave's pages — by then the engine has committed
// them) or until PurgeRetainedPages() is called explicitly. Pages
// fetched through the serial QueryInterface path stay valid for the
// next `serial_retain_pages - 1` serial fetches — the retain list is a
// bounded window, not process-lifetime storage (unbounded retention
// would leak every page of a long serial crawl).
//
// Thread-safety: none. Like WebDbServer, a NetQueryClient belongs to
// one thread; the parallelism lives in the pipelining, not in threads.

#ifndef DEEPCRAWL_NET_NET_CLIENT_H_
#define DEEPCRAWL_NET_NET_CLIENT_H_

#include <poll.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/net/frame.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace deepcrawl {

struct NetClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Connections the fetch executor pipelines a wave over.
  uint32_t connections = 1;
  // Ceiling on one request/response round; a fetch that exceeds it is
  // treated as a dead connection (reconnect, retransmit).
  uint64_t request_timeout_ms = 30'000;
  // Total attempts (send + await rounds) a serial fetch may spend
  // before surfacing the last failure. Bounds the pathological case of
  // a server that keeps accepting connections but never answers within
  // request_timeout_ms: without a cap the client would reconnect,
  // retransmit, and time out forever.
  uint32_t request_attempts = 3;
  // Total budget for re-reaching a dead server (covers the initial
  // connect too); exhausted -> the fetch fails with kUnavailable.
  uint64_t reconnect_window_ms = 15'000;
  // First reconnect backoff; doubles per attempt, capped at 1s.
  uint64_t reconnect_backoff_ms = 20;
  uint32_t max_frame_bytes = kMaxWireFrameBytes;
  // Pages handed out by the serial QueryInterface path stay valid for
  // at least this many subsequent serial fetches; older retained pages
  // are released, bounding a long serial crawl's memory. A caller that
  // buffers more serial fetches before consuming them (e.g. a
  // CrawlEngine driving a NetQueryClient through InlineFetchExecutor
  // instead of NetFetchExecutor) must raise this above its batch size.
  uint32_t serial_retain_pages = 1024;
};

// One framed connection. All sockets are non-blocking; the blocking
// entry points (Open, SendAll, ReceiveMessage) poll internally.
class NetConnection {
 public:
  NetConnection() = default;
  ~NetConnection();

  NetConnection(const NetConnection&) = delete;
  NetConnection& operator=(const NetConnection&) = delete;

  // Connects, performs the Hello/ServerInfo handshake, and stores the
  // ServerInfo. `timeout_ms` bounds the whole sequence.
  Status Open(const std::string& host, uint16_t port, uint64_t timeout_ms,
              uint32_t max_frame_bytes = kMaxWireFrameBytes);
  void Close();
  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const WireServerInfo& info() const { return info_; }

  // Queues bytes and flushes as far as the kernel will take without
  // blocking. kUnavailable on a dead connection.
  Status Send(std::string_view bytes);
  // Encodes `request`'s frame straight onto the send queue, without
  // flushing (TryFlushSend / SendAll do that). Returns the offset
  // total_bytes_sent() reaches once the whole frame has left.
  uint64_t QueueRequest(const WireRequest& request);
  // Non-blocking flush of queued bytes.
  Status TryFlushSend();
  // Blocking flush of everything queued, bounded by `timeout_ms`.
  Status SendAll(uint64_t timeout_ms);
  bool send_pending() const { return send_pos_ < send_buffer_.size(); }
  // Bytes of queued output already accepted by the kernel (monotonic
  // over the connection's lifetime; the executor timestamps a request's
  // "sent" moment by comparing this against QueueRequest's offset).
  uint64_t total_bytes_sent() const { return total_sent_; }

  // Blocking: next server message within `timeout_ms` (kDeadlineExceeded
  // on timeout, kUnavailable on EOF/reset, kInvalidArgument on a
  // corrupt stream).
  StatusOr<WireServerMessage> ReceiveMessage(uint64_t timeout_ms);

  // Non-blocking pair: pull available socket bytes into the assembler,
  // then drain complete messages. NextMessage true = `*out` filled; it
  // decodes straight from the assembler's buffer (no body copy).
  Status FillFromSocket();
  StatusOr<bool> NextMessage(WireServerMessage* out);

 private:
  int fd_ = -1;
  FrameAssembler assembler_;
  std::string send_buffer_;
  size_t send_pos_ = 0;
  uint64_t total_sent_ = 0;
  WireServerInfo info_;
};

class NetFetchExecutor;

class NetQueryClient : public QueryInterface {
 public:
  // Connects (within the reconnect window) and performs the handshake.
  static StatusOr<std::unique_ptr<NetQueryClient>> Connect(
      NetClientOptions options);

  // QueryInterface over the wire. Each call is one blocking round on
  // the primary connection, with transparent reconnect + retransmit.
  StatusOr<ResultPage> FetchPage(ValueId value, uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageByText(AttributeId attr,
                                       std::string_view text,
                                       uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageByKeyword(std::string_view text,
                                          uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageConjunctive(std::span<const ValueId> values,
                                            uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override;

  uint64_t communication_rounds() const override { return rounds_; }
  uint64_t queries_issued() const override { return queries_; }
  void ResetMeters() override;
  // Measured socket round-trip times (see RttCounters).
  RttCounters rtt_counters() const override { return rtt_; }

  const ServerOptions& options() const override { return info_.options; }
  bool IsQueriableValue(ValueId value) const override {
    return info_.IsQueriable(value);
  }
  uint32_t num_values() const override { return info_.num_values; }

  const WireServerInfo& server_info() const { return info_; }
  const NetClientOptions& net_options() const { return options_; }

  // Releases the storage behind every page handed out so far. Only
  // call once those pages are no longer referenced (see file comment).
  void PurgeRetainedPages();

  // Connection-level retries performed (reconnect attempts that found
  // the server again), for resilience reporting.
  uint64_t reconnects() const { return reconnects_; }

  // Pages currently held alive for handed-out record spans (bounded on
  // the serial path by serial_retain_pages; see the file comment).
  size_t retained_pages() const { return retained_.size(); }

 private:
  friend class NetFetchExecutor;

  explicit NetQueryClient(NetClientOptions options);

  // Serial round: send `request`, await its response, account meters.
  StatusOr<ResultPage> RoundTrip(WireRequest request);
  // (Re)establishes the primary connection within the reconnect
  // window; `attempted_before` skips the initial immediate try delay.
  Status EnsureConnected(NetConnection& conn);
  // Moves `page`'s storage into the retain list; the returned ResultPage
  // (spans included) stays valid until PurgeRetainedPages() or, for
  // serial fetches, until RoundTrip trims the retain window (see
  // NetClientOptions::serial_retain_pages).
  const ResultPage& Retain(DecodedPage page);
  // One fetch attempt = one communication round (page 0 = one query),
  // exactly the accounting WebDbServer/FaultyServer apply in-process.
  void AccountFetch(uint32_t page_number);
  uint64_t NextRequestId() { return next_request_id_++; }

  NetClientOptions options_;
  NetConnection primary_;
  WireServerInfo info_;
  uint64_t next_request_id_ = 1;
  std::deque<DecodedPage> retained_;
  uint64_t rounds_ = 0;
  uint64_t queries_ = 0;
  bool connected_once_ = false;
  uint64_t reconnects_ = 0;
  RttCounters rtt_;
};

// Pipelined fetch executor over a NetQueryClient (see file comment).
class NetFetchExecutor : public FetchExecutor {
 public:
  // `client` must outlive the executor. Secondary connections (beyond
  // the client's primary) are opened lazily on first use and reopened
  // on failure, up to client.net_options().connections total.
  explicit NetFetchExecutor(NetQueryClient& client);
  ~NetFetchExecutor() override;

  // `server` must be the NetQueryClient this executor wraps (the
  // engine passes its QueryInterface back through the seam).
  void FetchWave(QueryInterface& server, std::span<const FetchRequest> requests,
                 std::span<std::optional<StatusOr<ResultPage>>> results)
      override;

 private:
  struct Lane;  // one connection plus its share of the wave

  // Encodes the lane's unanswered requests onto its connection.
  void QueueLane(Lane& lane, std::span<const FetchRequest> requests);
  // Reconnects a lane whose connection died and re-queues its
  // unanswered suffix, or fails those slots (see FetchWave).
  void FailOrRevive(Lane& lane, const Status& reason,
                    std::span<const FetchRequest> requests,
                    std::span<std::optional<StatusOr<ResultPage>>> results);

  NetQueryClient& client_;
  std::vector<std::unique_ptr<NetConnection>> secondary_;
  // Per-wave scratch, kept across waves so its capacity is reused.
  std::vector<NetConnection*> conns_;
  std::vector<Lane> lanes_;
  std::vector<pollfd> pfds_;
  std::vector<Lane*> polled_;
  WireServerMessage message_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_NET_NET_CLIENT_H_
