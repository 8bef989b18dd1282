// WebDbTcpServer: serves any QueryInterface over the wire protocol of
// src/net/frame.h, on one EventLoop (DESIGN.md §13).
//
// Each accepted connection carries the Hello/ServerInfo handshake and
// then any number of pipelined fetch requests; responses are written in
// request order per connection, so a client that sends a whole wave
// down one connection gets the wave back in the order it asked. A
// readable connection is drained in one pass: every complete request
// the read delivered is served into the connection's outbox, and the
// outbox is flushed once — one write per connection per drain, not one
// per response (with latency_us > 0 each delayed response is flushed
// by its own timer instead).
// Because every backend the repo ships is a pure function of the
// request (WebDbServer reads fixed tables; FaultyServer in keyed mode
// derives faults from the query identity), the bytes a client receives
// are independent of how requests interleave across connections — the
// property the TCP-vs-in-process differential tests pin down.
//
// Backend calls happen on the loop thread only, so the backend needs no
// locking: the epoll loop serializes them. Wrapping a
// FaultyServer puts the whole fault model behind real sockets: injected
// kUnavailable / kDeadlineExceeded / rate-limit statuses (retry-after
// hint included) travel to the client verbatim.
//
// Overload: beyond `max_connections` concurrent connections, a new
// connection is shed gracefully — it receives one GoAway frame carrying
// kUnavailable plus a retry-after hint, then is closed. Clients surface
// that as a retryable source-unavailable, which the crawler's existing
// RetryPolicy machinery already knows how to pace.
//
// Malformed input (bad length prefix, magic, version, checksum, or an
// undecodable body) closes the connection: framing sync is gone, and
// the protocol never trusts bytes past a corrupt frame. Responses to
// the requests served before the corrupt frame in the same drain are
// flushed first, so the client still receives them, then EOF.

#ifndef DEEPCRAWL_NET_TCP_SERVER_H_
#define DEEPCRAWL_NET_TCP_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace deepcrawl {

struct TcpServerOptions {
  std::string bind_address = "127.0.0.1";
  // 0 picks an ephemeral port; read the choice back from port().
  uint16_t port = 0;
  // Concurrent-connection cap; one more connection is shed with GoAway.
  uint32_t max_connections = 1024;
  // Retry-after hint (communication rounds) attached to the shed status.
  uint32_t shed_retry_after_rounds = 4;
  // Size of the queriable-value bitmap in ServerInfo: values
  // [0, num_values) are probed against backend.IsQueriableValue once at
  // Start(). Pass the catalog's distinct-value count.
  uint32_t num_values = 0;
  // Artificial per-response delay: the one simulated-latency path, for
  // loopback benches and checks that need a slow source (0 = answer
  // immediately).
  uint64_t latency_us = 0;
};

class WebDbTcpServer {
 public:
  // `loop` and `backend` must outlive the server. `backend` is called
  // exclusively from the loop thread.
  WebDbTcpServer(EventLoop& loop, QueryInterface& backend,
                 TcpServerOptions options);
  ~WebDbTcpServer();

  WebDbTcpServer(const WebDbTcpServer&) = delete;
  WebDbTcpServer& operator=(const WebDbTcpServer&) = delete;

  // Binds (SO_REUSEADDR), listens, registers with the loop, and builds
  // the ServerInfo frame. Call before the loop runs.
  Status Start();

  // Closes the listener and every connection; safe to skip (the
  // destructor closes raw fds without touching the loop).
  void Shutdown();

  // The bound port (after Start()).
  uint16_t port() const { return port_; }

  // --- stats (loop-thread writes, any-thread reads) -------------------
  uint64_t connections_accepted() const { return connections_accepted_; }
  uint64_t connections_shed() const { return connections_shed_; }
  uint64_t requests_served() const { return requests_served_; }
  uint64_t protocol_errors() const { return protocol_errors_; }
  size_t open_connections() const { return connections_.size(); }

 private:
  struct Connection {
    // Distinguishes incarnations of a recycled fd, so a latency timer
    // scheduled for a connection that died meanwhile becomes a no-op
    // instead of writing into an unrelated connection.
    uint64_t id = 0;
    int fd = -1;
    FrameAssembler assembler;
    std::string outbox;        // bytes not yet handed to the kernel
    size_t outbox_pos = 0;
    bool saw_hello = false;
    bool want_writable = false;  // EPOLLOUT currently armed
    // Over-cap connection being told to go away: input is discarded,
    // and the connection lingers (instead of closing outright) until
    // the client has read the GoAway — an immediate close would RST
    // away the very frame that makes shedding graceful.
    bool shedding = false;
  };

  void OnAcceptable();
  void OnConnectionEvent(int fd, uint32_t events);
  // Reads until EAGAIN, serves every complete request into the outbox,
  // then flushes the outbox once. Returns false when the connection
  // died (or was closed for a protocol error).
  bool DrainReadable(Connection& conn);
  // Decodes and serves one request body, appending its response to the
  // outbox (or, with latency_us > 0, scheduling it). Never writes to
  // the socket, so `conn` stays alive. False: protocol error — the
  // caller counts it and closes the connection after flushing.
  bool ServeBody(Connection& conn, std::string_view body);
  StatusOr<ResultPage> Dispatch(const WireRequest& request);
  // Appends the frame and flushes (shed GoAway, delayed responses).
  // Returns false when the flush killed the connection
  // (CloseConnection already ran; `conn` is freed).
  bool QueueFrame(Connection& conn, std::string frame);
  // Writes the outbox until EAGAIN/empty, (dis)arming EPOLLOUT.
  // Returns false when the connection died.
  bool FlushOutbox(Connection& conn);
  void CloseConnection(int fd);

  EventLoop& loop_;
  QueryInterface& backend_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_connection_id_ = 1;
  // Serving (non-shedding) connections; the capacity check uses this so
  // lingering shed connections can't wedge the server below capacity.
  size_t active_connections_ = 0;
  std::string server_info_frame_;
  std::string goaway_frame_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  uint64_t connections_accepted_ = 0;
  uint64_t connections_shed_ = 0;
  uint64_t requests_served_ = 0;
  uint64_t protocol_errors_ = 0;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_NET_TCP_SERVER_H_
