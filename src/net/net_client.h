// Client side of the wire protocol (src/net/frame.h): a framed TCP
// connection, a QueryInterface adapter over it, and the executor that
// plugs it into the crawl engine.
//
//   * NetConnection — one non-blocking socket plus a FrameAssembler:
//     connect + Hello/ServerInfo handshake, buffered sends, and both
//     blocking (poll-based) and non-blocking receive paths. bench_net
//     drives raw NetConnections directly.
//
//   * NetQueryClient — implements QueryInterface over NetConnections,
//     so every selector, retry policy, and the whole crawl engine run
//     unchanged against a remote WebDB. options() and
//     IsQueriableValue() are answered locally from the handshake's
//     ServerInfo (schema + queriable-value bitmap). Every fetch goes
//     through one routine, FetchWave: it round-robins the wave's
//     requests over up to `connections` NetConnections (the primary
//     plus lazily opened secondaries) and PIPELINES each connection's
//     share in one burst — every frame encoded straight into the
//     connection's send buffer, handed to the kernel in one write —
//     then multiplexes with poll() until every slot has an answer.
//     FetchPage and FetchPageKeywordOf are waves of one on the primary
//     connection. Because the protocol is read-only and idempotent, a
//     dead connection is retried transparently: reconnect with
//     exponential backoff inside `reconnect_window_ms`, retransmit the
//     unanswered requests, and surface kUnavailable once the window is
//     exhausted — which is how a crawl survives a server kill/restart
//     with its trace intact. A reachable-but-silent server is bounded
//     too: after `request_attempts` sends of a connection's share the
//     last failure (kDeadlineExceeded/kUnavailable) is surfaced instead
//     of retrying forever (the engine's RetryPolicy paces any attempts
//     that do fail through). The lanes, pollfd array and send buffers
//     are members reused across waves, so the wave's bookkeeping
//     allocates nothing once warm. Responses fill their slot by request
//     id and the engine commits in selector-rank order as always, so
//     the crawl output stays a pure function of (seed, batch) no matter
//     how responses interleave across connections (differential-tested
//     against the in-process engine byte for byte). The client meters
//     no cost, like every QueryInterface: the engine counts rounds and
//     queries. It keeps only the wall-clock RttCounters.
//
//   * NetFetchExecutor — the CrawlEngine executor seam: forwards each
//     wave to its NetQueryClient's FetchWave.
//
// Page-lifetime contract: a returned ResultPage's record spans point
// into storage owned by the client (DecodedPage). A page stays valid
// until the next fetch through the same client begins, whether that
// fetch is a wave or a single FetchPage: every fetch first releases the
// previous one's pages. So an engine over a NetQueryClient at batch > 1
// must fetch through NetFetchExecutor, which hands the engine the whole
// wave at once; InlineFetchExecutor would fetch the wave's pages one
// call at a time and free each before the commit reads it. At batch 1
// either executor is safe: the engine commits every page before the
// next fetch.
//
// Thread-safety: none. Like WebDbServer, a NetQueryClient belongs to
// one thread; the parallelism lives in the pipelining, not in threads.

#ifndef DEEPCRAWL_NET_NET_CLIENT_H_
#define DEEPCRAWL_NET_NET_CLIENT_H_

#include <poll.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
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
  // Connections a wave is pipelined over.
  uint32_t connections = 1;
  // Ceiling on one request/response round; a fetch that exceeds it is
  // treated as a dead connection (reconnect, retransmit).
  uint64_t request_timeout_ms = 30'000;
  // Total sends one connection's share of a wave (a single fetch
  // included) may spend before surfacing the last failure. Bounds the
  // pathological case of a server that keeps accepting connections but
  // never answers within request_timeout_ms, or answers with malformed
  // pages: without a cap the client would reconnect, retransmit, and
  // fail forever.
  uint32_t request_attempts = 3;
  // Total budget for re-reaching a dead server (covers the initial
  // connect too); exhausted -> the fetch fails with kUnavailable. One
  // attempt is always made, so 0 means "connect once, never retry".
  uint64_t reconnect_window_ms = 15'000;
  // First reconnect backoff; doubles per attempt, capped at 1s.
  uint64_t reconnect_backoff_ms = 20;
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
  Status Open(const std::string& host, uint16_t port, uint64_t timeout_ms);
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
  // decodes straight from the assembler's buffer (no body copy). A
  // malformed message, or a page carrying a value id at or above the
  // handshake's num_values, is a protocol error (kInvalidArgument).
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

class NetQueryClient : public QueryInterface {
 public:
  // Connects (within the reconnect window) and performs the handshake.
  static StatusOr<std::unique_ptr<NetQueryClient>> Connect(
      NetClientOptions options);
  ~NetQueryClient() override;

  // QueryInterface over the wire: each call is a wave of one on the
  // primary connection, with transparent reconnect + retransmit.
  StatusOr<ResultPage> FetchPage(ValueId value, uint32_t page_number) override;
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override;

  // Fetches a wave, writing results[i] for requests[i] (see the file
  // comment); every slot is filled on return.
  void FetchWave(std::span<const FetchRequest> requests,
                 std::span<std::optional<StatusOr<ResultPage>>> results);

  // Measured socket round-trip times (see RttCounters).
  RttCounters rtt_counters() const override { return rtt_; }

  const ServerOptions& options() const override { return info_.options; }
  bool IsQueriableValue(ValueId value) const override {
    return info_.IsQueriable(value);
  }
  uint32_t num_values() const override { return info_.num_values; }

  const WireServerInfo& server_info() const { return info_; }
  const NetClientOptions& net_options() const { return options_; }

  // Connection-level retries performed (reconnect attempts that found
  // the server again), for resilience reporting.
  uint64_t reconnects() const { return reconnects_; }

  // Pages currently held alive for handed-out record spans: the last
  // fetch's (see the file comment).
  size_t retained_pages() const { return retained_.size(); }

 private:
  struct Lane;  // one connection plus its share of the wave

  explicit NetQueryClient(NetClientOptions options);

  StatusOr<ResultPage> FetchOne(const FetchRequest& request);
  // (Re)establishes `conn` within the reconnect window.
  Status EnsureConnected(NetConnection& conn);
  // Releases the storage behind every page handed out so far.
  void PurgeRetainedPages() { retained_.clear(); }
  // Moves `page`'s storage into the retain list; the returned ResultPage
  // (spans included) stays valid until the next fetch begins.
  const ResultPage& Retain(DecodedPage page);
  // Encodes the lane's unanswered requests onto its connection.
  void QueueLane(Lane& lane, std::span<const FetchRequest> requests);
  // Reconnects a lane whose connection died and re-queues its
  // unanswered suffix, or fails those slots with `reason` (when not OK)
  // once the reconnect fails or the lane has spent request_attempts
  // sends this wave.
  void FailOrRevive(Lane& lane, const Status& reason,
                    std::span<const FetchRequest> requests,
                    std::span<std::optional<StatusOr<ResultPage>>> results);

  NetClientOptions options_;
  NetConnection primary_;
  std::vector<std::unique_ptr<NetConnection>> secondary_;
  WireServerInfo info_;
  uint64_t next_request_id_ = 1;
  std::deque<DecodedPage> retained_;  // never relocates a page
  bool connected_once_ = false;
  uint64_t reconnects_ = 0;
  RttCounters rtt_;
  // Per-wave scratch, kept across waves so its capacity is reused.
  std::vector<NetConnection*> conns_;
  std::vector<Lane> lanes_;
  std::vector<pollfd> pfds_;
  std::vector<Lane*> polled_;
  WireServerMessage message_;
};

// The engine's executor seam over a NetQueryClient (see file comment).
class NetFetchExecutor : public FetchExecutor {
 public:
  // `client` must outlive the executor.
  explicit NetFetchExecutor(NetQueryClient& client) : client_(client) {}

  // `server` must be the NetQueryClient this executor wraps (the
  // engine passes its QueryInterface back through the seam).
  void FetchWave(QueryInterface& server, std::span<const FetchRequest> requests,
                 std::span<std::optional<StatusOr<ResultPage>>> results)
      override;

 private:
  NetQueryClient& client_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_NET_NET_CLIENT_H_
