#include "src/net/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

namespace deepcrawl {
namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + strerror(errno));
}

constexpr size_t kReadChunkBytes = 64 * 1024;

}  // namespace

WebDbTcpServer::WebDbTcpServer(EventLoop& loop, QueryInterface& backend,
                               TcpServerOptions options)
    : loop_(loop), backend_(backend), options_(std::move(options)) {}

WebDbTcpServer::~WebDbTcpServer() {
  // Raw closes only: the loop may already be gone. A live loop was
  // already detached by Shutdown() if the caller wanted clean teardown.
  for (auto& [fd, conn] : connections_) close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status WebDbTcpServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  // SO_REUSEADDR lets a restarted server rebind its old port while
  // TIME_WAIT remnants of the crashed incarnation linger — the
  // kill-the-server resilience pass depends on it.
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  if (listen(listen_fd_, SOMAXCONN) < 0) return Errno("listen");
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &addr_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  WireServerInfo info;
  info.options = backend_.options();
  info.num_values = options_.num_values;
  info.queriable_bitmap.assign((options_.num_values + 7) / 8, 0);
  for (uint32_t v = 0; v < options_.num_values; ++v) {
    if (backend_.IsQueriableValue(v)) {
      info.queriable_bitmap[v >> 3] |= static_cast<uint8_t>(1u << (v & 7u));
    }
  }
  server_info_frame_ = EncodeServerInfoFrame(info);
  goaway_frame_ = EncodeGoAwayFrame(
      Status::Unavailable("connection limit reached, retry later")
          .WithRetryAfter(options_.shed_retry_after_rounds));

  return loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
}

void WebDbTcpServer::Shutdown() {
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd);
}

void WebDbTcpServer::OnAcceptable() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // transient accept failure; the loop will retry
    }
    const bool shed = active_connections_ >= options_.max_connections;
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_connection_id_++;
    conn->fd = fd;
    conn->shedding = shed;
    Status added = loop_.Add(
        fd, EPOLLIN, [this, fd](uint32_t events) {
          OnConnectionEvent(fd, events);
        });
    if (!added.ok()) {
      close(fd);
      continue;
    }
    Connection& registered = *conn;
    connections_.emplace(fd, std::move(conn));
    if (shed) {
      // Shed gracefully: one GoAway frame, then LINGER until the client
      // reads it and closes (closing right away would send an RST —
      // the unread bytes the client already pipelined make close()
      // abortive — and the RST would discard the GoAway in flight).
      // Input is discarded meanwhile; a timer reaps rude clients.
      ++connections_shed_;
      uint64_t conn_id = registered.id;
      loop_.ScheduleAt(EventLoop::NowMicros() + 2'000'000,
                       [this, fd, conn_id] {
                         auto it = connections_.find(fd);
                         if (it != connections_.end() &&
                             it->second->id == conn_id) {
                           CloseConnection(fd);
                         }
                       });
      // Result ignored: `registered` is not touched after this, and a
      // failed flush already closed it (the reaper then no-ops).
      QueueFrame(registered, goaway_frame_);
      continue;
    }
    ++active_connections_;
    ++connections_accepted_;
  }
}

void WebDbTcpServer::OnConnectionEvent(int fd, uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(fd);
    return;
  }
  if ((events & EPOLLIN) && !DrainReadable(conn)) return;
  if (events & EPOLLOUT) FlushOutbox(conn);
}

bool WebDbTcpServer::DrainReadable(Connection& conn) {
  char buf[kReadChunkBytes];
  for (;;) {
    ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      // A shed connection's input is discarded: its only traffic is the
      // GoAway on the way out.
      if (!conn.shedding) {
        conn.assembler.Append(std::string_view(buf, static_cast<size_t>(n)));
      }
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(conn.fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn.fd);
    return false;
  }
  if (conn.shedding) return true;
  // Serve every complete request into the outbox, then flush ONCE: one
  // write per drain, however many frames the read delivered. A corrupt
  // frame part-way through still flushes the responses served before
  // it, so the client gets every answer it would have had with a
  // write per frame, and only then sees the close.
  bool protocol_error = false;
  for (;;) {
    std::string_view body;
    StatusOr<bool> next = conn.assembler.Next(&body);
    if (next.ok() && !*next) break;  // no complete frame left
    if (!next.ok() || !ServeBody(conn, body)) {
      protocol_error = true;
      break;
    }
  }
  if (protocol_error) ++protocol_errors_;
  // A failed flush already destroyed the connection; `conn` is freed.
  if (!FlushOutbox(conn)) return false;
  if (protocol_error) {
    CloseConnection(conn.fd);
    return false;
  }
  return true;
}

bool WebDbTcpServer::ServeBody(Connection& conn, std::string_view body) {
  StatusOr<WireRequest> request = DecodeRequest(body);
  if (!request.ok()) return false;
  if (request->type == WireMessageType::kHello) {
    if (conn.saw_hello) return false;  // one handshake per connection
    conn.saw_hello = true;
    conn.outbox.append(server_info_frame_);
    return true;
  }
  if (!conn.saw_hello) return false;  // fetch before handshake

  ++requests_served_;
  if (options_.latency_us == 0) {
    AppendResponseFrame(conn.outbox, request->request_id, Dispatch(*request));
    return true;
  }
  // Delay the RESPONSE, not the backend call: the backend's fault/meter
  // stream still sees arrival order, and equal delays preserve the
  // per-connection response order (timers with equal deadlines fire in
  // schedule order).
  std::string frame = EncodeResponseFrame(request->request_id,
                                          Dispatch(*request));
  uint64_t conn_id = conn.id;
  int fd = conn.fd;
  loop_.ScheduleAt(
      EventLoop::NowMicros() + options_.latency_us,
      [this, fd, conn_id, frame = std::move(frame)]() mutable {
        auto it = connections_.find(fd);
        if (it == connections_.end() || it->second->id != conn_id) return;
        // Result ignored: the connection is not touched after this, and
        // a failed flush already closed it.
        QueueFrame(*it->second, std::move(frame));
      });
  return true;
}

StatusOr<ResultPage> WebDbTcpServer::Dispatch(const WireRequest& request) {
  switch (request.type) {
    case WireMessageType::kFetchPage:
      return backend_.FetchPage(request.value, request.page_number);
    case WireMessageType::kFetchPageKeywordOf:
      return backend_.FetchPageKeywordOf(request.value, request.page_number);
    default:
      return Status::Internal("non-fetch request reached Dispatch");
  }
}

bool WebDbTcpServer::QueueFrame(Connection& conn, std::string frame) {
  if (conn.outbox.empty()) {
    conn.outbox = std::move(frame);
    conn.outbox_pos = 0;
  } else {
    conn.outbox.append(frame);
  }
  return FlushOutbox(conn);
}

bool WebDbTcpServer::FlushOutbox(Connection& conn) {
  while (conn.outbox_pos < conn.outbox.size()) {
    ssize_t n = write(conn.fd, conn.outbox.data() + conn.outbox_pos,
                      conn.outbox.size() - conn.outbox_pos);
    if (n > 0) {
      conn.outbox_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_writable) {
        conn.want_writable = true;
        loop_.Modify(conn.fd, EPOLLIN | EPOLLOUT);
      }
      return true;
    }
    if (errno == EINTR) continue;
    CloseConnection(conn.fd);
    return false;
  }
  conn.outbox.clear();
  conn.outbox_pos = 0;
  if (conn.want_writable) {
    conn.want_writable = false;
    loop_.Modify(conn.fd, EPOLLIN);
  }
  return true;
}

void WebDbTcpServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (!it->second->shedding) --active_connections_;
  loop_.Remove(fd);
  close(fd);
  connections_.erase(it);
}

}  // namespace deepcrawl
