#include "src/net/net_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace deepcrawl {
namespace {

uint64_t NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000;
}

uint64_t NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000;
}

void SleepMs(uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  nanosleep(&ts, nullptr);
}

// Blocks until `fd` is ready for `events`. kDeadlineExceeded on
// timeout, kUnavailable on poll error or socket hangup/error.
Status WaitFd(int fd, short events, uint64_t timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  uint64_t deadline = NowMs() + timeout_ms;
  for (;;) {
    uint64_t now = NowMs();
    int wait = now >= deadline ? 0 : static_cast<int>(
        std::min<uint64_t>(deadline - now, INT_MAX));
    int n = poll(&pfd, 1, wait);
    if (n > 0) {
      if (pfd.revents & (POLLERR | POLLNVAL)) {
        return Status::Unavailable("socket error while waiting");
      }
      return Status::OK();
    }
    if (n == 0) return Status::DeadlineExceeded("socket wait timed out");
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string("poll: ") + strerror(errno));
  }
}

}  // namespace

// --- NetConnection ----------------------------------------------------

NetConnection::~NetConnection() { Close(); }

void NetConnection::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status NetConnection::Open(const std::string& host, uint16_t port,
                           uint64_t timeout_ms) {
  Close();
  assembler_ = FrameAssembler();
  send_buffer_.clear();
  send_pos_ = 0;
  total_sent_ = 0;
  uint64_t deadline = NowMs() + timeout_ms;

  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + strerror(errno));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      Status status =
          Status::Unavailable(std::string("connect: ") + strerror(errno));
      Close();
      return status;
    }
    uint64_t now = NowMs();
    Status ready =
        WaitFd(fd_, POLLOUT, deadline > now ? deadline - now : 0);
    if (!ready.ok()) {
      Close();
      return ready;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      Close();
      return Status::Unavailable(std::string("connect: ") + strerror(err));
    }
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Handshake: Hello out, ServerInfo back.
  AppendHelloFrame(send_buffer_);
  uint64_t sent_at = NowMs();
  Status sent = SendAll(deadline > sent_at ? deadline - sent_at : 0);
  if (!sent.ok()) {
    Close();
    return sent;
  }
  uint64_t now = NowMs();
  StatusOr<WireServerMessage> reply =
      ReceiveMessage(deadline > now ? deadline - now : 0);
  if (!reply.ok()) {
    Close();
    return reply.status();
  }
  if (reply->type == WireMessageType::kGoAway) {
    Close();
    return reply->status;  // shed: kUnavailable with a retry-after hint
  }
  if (reply->type != WireMessageType::kServerInfo) {
    Close();
    return Status::InvalidArgument("handshake reply is not ServerInfo");
  }
  info_ = std::move(reply->info);
  return Status::OK();
}

Status NetConnection::Send(std::string_view bytes) {
  if (!is_open()) return Status::Unavailable("connection is closed");
  if (send_pos_ == send_buffer_.size()) {
    send_buffer_.clear();
    send_pos_ = 0;
  }
  send_buffer_.append(bytes);
  return TryFlushSend();
}

uint64_t NetConnection::QueueRequest(const WireRequest& request) {
  // TryFlushSend empties the buffer once everything has left, so this
  // appends either at the front or behind bytes still pending.
  AppendRequestFrame(send_buffer_, request);
  return total_sent_ + (send_buffer_.size() - send_pos_);
}

Status NetConnection::TryFlushSend() {
  if (!is_open()) return Status::Unavailable("connection is closed");
  while (send_pos_ < send_buffer_.size()) {
    ssize_t n = write(fd_, send_buffer_.data() + send_pos_,
                      send_buffer_.size() - send_pos_);
    if (n > 0) {
      send_pos_ += static_cast<size_t>(n);
      total_sent_ += static_cast<uint64_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno == EINTR) continue;
    Status status =
        Status::Unavailable(std::string("write: ") + strerror(errno));
    Close();
    return status;
  }
  send_buffer_.clear();
  send_pos_ = 0;
  return Status::OK();
}

Status NetConnection::SendAll(uint64_t timeout_ms) {
  uint64_t deadline = NowMs() + timeout_ms;
  for (;;) {
    DEEPCRAWL_RETURN_IF_ERROR(TryFlushSend());
    if (!send_pending()) return Status::OK();
    uint64_t now = NowMs();
    if (now >= deadline) return Status::DeadlineExceeded("send timed out");
    DEEPCRAWL_RETURN_IF_ERROR(WaitFd(fd_, POLLOUT, deadline - now));
  }
}

Status NetConnection::FillFromSocket() {
  if (!is_open()) return Status::Unavailable("connection is closed");
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      assembler_.Append(std::string_view(buf, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof(buf)) return Status::OK();
      continue;
    }
    if (n == 0) {
      Close();
      return Status::Unavailable("connection closed by server");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno == EINTR) continue;
    Status status =
        Status::Unavailable(std::string("read: ") + strerror(errno));
    Close();
    return status;
  }
}

StatusOr<bool> NetConnection::NextMessage(WireServerMessage* out) {
  std::string_view body;
  StatusOr<bool> next = assembler_.Next(&body);
  if (!next.ok()) return next.status();
  if (!*next) return false;
  StatusOr<WireServerMessage> message = DecodeServerMessage(body);
  if (!message.ok()) return message.status();
  if (message->type == WireMessageType::kPageResult) {
    // Every value a page carries must be in the catalog the handshake
    // announced: the store and the engine size per-value arrays by it.
    for (ValueId value : message->result.values) {
      if (value >= info_.num_values) {
        return Status::InvalidArgument(
            "result page carries value " + std::to_string(value) +
            ", outside the server's " + std::to_string(info_.num_values) +
            " values");
      }
    }
  }
  *out = std::move(*message);
  return true;
}

StatusOr<WireServerMessage> NetConnection::ReceiveMessage(
    uint64_t timeout_ms) {
  uint64_t deadline = NowMs() + timeout_ms;
  WireServerMessage message;
  for (;;) {
    StatusOr<bool> next = NextMessage(&message);
    if (!next.ok()) {
      Close();  // corrupt stream: framing sync is gone
      return next.status();
    }
    if (*next) return message;
    if (!is_open()) return Status::Unavailable("connection is closed");
    uint64_t now = NowMs();
    if (now >= deadline) {
      return Status::DeadlineExceeded("no response within timeout");
    }
    DEEPCRAWL_RETURN_IF_ERROR(WaitFd(fd_, POLLIN, deadline - now));
    DEEPCRAWL_RETURN_IF_ERROR(FillFromSocket());
  }
}

// --- NetQueryClient ---------------------------------------------------

NetQueryClient::NetQueryClient(NetClientOptions options)
    : options_(std::move(options)) {}

NetQueryClient::~NetQueryClient() = default;

StatusOr<std::unique_ptr<NetQueryClient>> NetQueryClient::Connect(
    NetClientOptions options) {
  std::unique_ptr<NetQueryClient> client(
      new NetQueryClient(std::move(options)));
  DEEPCRAWL_RETURN_IF_ERROR(client->EnsureConnected(client->primary_));
  return client;
}

Status NetQueryClient::EnsureConnected(NetConnection& conn) {
  if (conn.is_open()) return Status::OK();
  const uint64_t window = options_.reconnect_window_ms;
  const uint64_t deadline = NowMs() + window;
  uint64_t backoff = options_.reconnect_backoff_ms;
  // Every call makes at least one attempt: the window bounds the
  // retries, so an empty one means "try once", and that attempt gets
  // the full request timeout.
  uint64_t timeout = window > 0 ? std::min(window, options_.request_timeout_ms)
                                : options_.request_timeout_ms;
  for (;;) {
    Status last = conn.Open(options_.host, options_.port, timeout);
    if (last.ok()) {
      if (connected_once_) ++reconnects_;
      connected_once_ = true;
      if (info_.num_values == 0 && info_.queriable_bitmap.empty()) {
        info_ = conn.info();
      }
      return Status::OK();
    }
    uint64_t now = NowMs();
    if (now < deadline) {
      SleepMs(std::min<uint64_t>(backoff, deadline - now));
      backoff = std::min<uint64_t>(backoff * 2, 1000);
      now = NowMs();
    }
    if (now >= deadline) {
      // Keep a shedding server's retry-after hint for the RetryPolicy.
      Status failed = Status::Unavailable(
          "server unreachable within reconnect window (last: " +
          last.ToString() + ")");
      if (last.retry_after_rounds().has_value()) {
        failed = failed.WithRetryAfter(*last.retry_after_rounds());
      }
      return failed;
    }
    timeout = std::min(options_.request_timeout_ms, deadline - now);
  }
}

void NetQueryClient::ResetMeters() {
  rounds_ = 0;
  queries_ = 0;
  rtt_ = RttCounters{};
}

const ResultPage& NetQueryClient::Retain(DecodedPage page) {
  retained_.push_back(std::move(page));
  return retained_.back().page;
}

void NetQueryClient::AccountFetch(uint32_t page_number) {
  ++rounds_;
  if (page_number == 0) ++queries_;
}

StatusOr<ResultPage> NetQueryClient::FetchOne(const FetchRequest& request) {
  std::optional<StatusOr<ResultPage>> result;
  FetchWave(std::span(&request, 1), std::span(&result, 1));
  return *std::move(result);
}

StatusOr<ResultPage> NetQueryClient::FetchPage(ValueId value,
                                               uint32_t page_number) {
  return FetchOne(FetchRequest{value, page_number, /*keyword=*/false});
}

StatusOr<ResultPage> NetQueryClient::FetchPageKeywordOf(
    ValueId value, uint32_t page_number) {
  return FetchOne(FetchRequest{value, page_number, /*keyword=*/true});
}

// One connection plus its share of the wave. `slots` indexes into the
// wave's request/result spans, in send order; responses must come back
// in exactly that order (the server guarantees per-connection request
// order), so the answered prefix is a single counter and a reconnect
// retransmits the unanswered suffix.
struct NetQueryClient::Lane {
  NetConnection* conn = nullptr;
  std::vector<size_t> slots;
  std::vector<uint64_t> ids;           // request id per slot position
  std::vector<uint64_t> send_end;      // QueueRequest offset per slot
  std::vector<uint64_t> send_time_us;  // stamped as bytes reach the kernel
  size_t sent_slots = 0;    // slots whose bytes the kernel accepted
  size_t next_unanswered = 0;
  uint64_t last_progress_ms = 0;
  uint32_t attempts = 1;  // sends of the lane's share this wave
  bool dead = false;

  void Reset(NetConnection* connection, uint64_t now_ms) {
    conn = connection;
    slots.clear();
    ids.clear();
    next_unanswered = 0;
    last_progress_ms = now_ms;
    attempts = 1;
    dead = false;
  }
  bool done() const { return dead || next_unanswered == slots.size(); }
};

void NetQueryClient::QueueLane(Lane& lane,
                               std::span<const FetchRequest> requests) {
  lane.send_end.clear();
  lane.send_time_us.assign(lane.slots.size(), 0);
  lane.sent_slots = 0;
  WireRequest wire;
  for (size_t j = 0; j < lane.slots.size(); ++j) {
    const FetchRequest& req = requests[lane.slots[j]];
    wire.type = req.keyword ? WireMessageType::kFetchPageKeywordOf
                            : WireMessageType::kFetchPage;
    wire.request_id = lane.ids[j];
    wire.value = req.value;
    wire.page_number = req.page_number;
    lane.send_end.push_back(lane.conn->QueueRequest(wire));
  }
}

// A lane's connection died: reconnect within the window and retransmit
// its unanswered suffix (same request ids, fresh byte stream), else
// mark the lane dead and fail its remaining slots with `reason` (the
// engine's RetryPolicy takes it from there).
void NetQueryClient::FailOrRevive(
    Lane& lane, const Status& reason, std::span<const FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  lane.conn->Close();
  // A lane spends at most request_attempts sends per wave: a server
  // that keeps answering with a malformed page, or never answers, fails
  // the slots instead of being retried forever.
  const uint32_t max_attempts = std::max<uint32_t>(1, options_.request_attempts);
  Status revived =
      lane.attempts < max_attempts
          ? EnsureConnected(*lane.conn)
          : Status::Unavailable("connection failed " +
                                std::to_string(lane.attempts) +
                                " times in one wave");
  if (revived.ok()) {
    ++lane.attempts;
    const auto answered = static_cast<ptrdiff_t>(lane.next_unanswered);
    lane.slots.erase(lane.slots.begin(), lane.slots.begin() + answered);
    lane.ids.erase(lane.ids.begin(), lane.ids.begin() + answered);
    lane.next_unanswered = 0;
    QueueLane(lane, requests);
    lane.last_progress_ms = NowMs();
    return;
  }
  lane.dead = true;
  Status failed = reason.ok() ? revived : reason;
  for (size_t j = lane.next_unanswered; j < lane.slots.size(); ++j) {
    results[lane.slots[j]] = failed;
  }
}

void NetQueryClient::FetchWave(
    std::span<const FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  // The previous fetch is committed by now; release its page storage.
  PurgeRetainedPages();
  if (requests.empty()) return;

  // Connection 0 is the primary; the rest live in secondary_ and are
  // opened lazily, never more than the wave has requests. A secondary
  // that cannot be opened right now just shrinks the fan-out for this
  // wave — the primary alone can always carry it. An unreachable
  // primary fails the wave with the reconnect window's last cause.
  Status primary = EnsureConnected(primary_);
  if (!primary.ok()) {
    for (auto& result : results) result = primary;
    return;
  }
  const size_t want_conns = std::min<size_t>(
      std::max<uint32_t>(1, options_.connections), requests.size());
  conns_.clear();
  conns_.push_back(&primary_);
  while (secondary_.size() + 1 < want_conns) {
    secondary_.push_back(std::make_unique<NetConnection>());
  }
  for (auto& conn : secondary_) {
    if (conns_.size() >= want_conns) break;
    if (!conn->is_open() &&
        !conn->Open(options_.host, options_.port, options_.request_timeout_ms)
             .ok()) {
      continue;
    }
    conns_.push_back(conn.get());
  }

  // Round-robin the wave over the lanes and encode each lane's share
  // straight into its connection's send buffer as ONE pipelined burst.
  const size_t num_lanes = conns_.size();
  if (lanes_.size() < num_lanes) lanes_.resize(num_lanes);
  const std::span<Lane> lanes(lanes_.data(), num_lanes);
  const uint64_t now_ms = NowMs();
  for (size_t i = 0; i < num_lanes; ++i) lanes[i].Reset(conns_[i], now_ms);
  for (size_t i = 0; i < requests.size(); ++i) {
    Lane& lane = lanes[i % num_lanes];
    lane.slots.push_back(i);
    lane.ids.push_back(next_request_id_++);
    AccountFetch(requests[i].page_number);
  }
  for (Lane& lane : lanes) QueueLane(lane, requests);

  // Hands the lane's queued bytes to the kernel (one write for the
  // whole burst when the socket buffer takes it) and stamps the send
  // time of every request fully accepted. False: the connection died.
  auto pump_send = [](Lane& lane) -> bool {
    if (lane.conn->send_pending() && !lane.conn->TryFlushSend().ok()) {
      return false;
    }
    const uint64_t sent = lane.conn->total_bytes_sent();
    const uint64_t now_us = NowUs();
    while (lane.sent_slots < lane.slots.size() &&
           lane.send_end[lane.sent_slots] <= sent) {
      lane.send_time_us[lane.sent_slots++] = now_us;
    }
    return true;
  };

  for (Lane& lane : lanes) {
    if (!pump_send(lane)) FailOrRevive(lane, Status::OK(), requests, results);
  }

  for (;;) {
    pfds_.clear();
    polled_.clear();
    for (Lane& lane : lanes) {
      if (lane.done()) continue;
      pollfd pfd;
      pfd.fd = lane.conn->fd();
      pfd.events = POLLIN;
      if (lane.conn->send_pending()) pfd.events |= POLLOUT;
      pfd.revents = 0;
      pfds_.push_back(pfd);
      polled_.push_back(&lane);
    }
    if (pfds_.empty()) break;

    int n = poll(pfds_.data(), pfds_.size(), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      // poll() itself failed (EINVAL/ENOMEM class): no lane can make
      // progress. Fail every unanswered slot before leaving so the
      // engine never sees an unfilled result cell — CommitFetch
      // dereferences each optional unconditionally.
      Status poll_failed =
          Status::Unavailable(std::string("poll: ") + strerror(errno));
      for (Lane* lane : polled_) {
        lane->dead = true;
        for (size_t j = lane->next_unanswered; j < lane->slots.size(); ++j) {
          results[lane->slots[j]] = poll_failed;
        }
      }
      break;
    }

    for (size_t i = 0; i < polled_.size(); ++i) {
      Lane& lane = *polled_[i];
      if (lane.done()) continue;
      short revents = pfds_[i].revents;
      if (revents & (POLLOUT)) {
        if (!pump_send(lane)) {
          FailOrRevive(lane, Status::OK(), requests, results);
          continue;
        }
        lane.last_progress_ms = NowMs();
      }
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        Status filled = lane.conn->FillFromSocket();
        bool lane_failed = !filled.ok();
        // A malformed message; the slots fail with it once the lane is
        // out of attempts.
        Status protocol_error;
        while (!lane_failed && !lane.done()) {
          StatusOr<bool> next = lane.conn->NextMessage(&message_);
          if (!next.ok()) {
            lane_failed = true;
            protocol_error = next.status();
            break;
          }
          if (!*next) break;
          lane.last_progress_ms = NowMs();
          if (message_.type == WireMessageType::kGoAway) {
            lane_failed = true;
            break;
          }
          if (message_.type != WireMessageType::kPageResult ||
              message_.request_id != lane.ids[lane.next_unanswered]) {
            lane_failed = true;  // out-of-order or foreign response
            break;
          }
          size_t slot = lane.slots[lane.next_unanswered];
          if (lane.send_time_us[lane.next_unanswered] != 0) {
            rtt_.Record(NowUs() - lane.send_time_us[lane.next_unanswered]);
          }
          if (message_.status.ok()) {
            results[slot] = Retain(std::move(message_.result));
          } else {
            results[slot] = message_.status;
          }
          ++lane.next_unanswered;
        }
        if (lane_failed) {
          FailOrRevive(lane, protocol_error, requests, results);
          continue;
        }
      }
      if (!lane.done() &&
          NowMs() - lane.last_progress_ms > options_.request_timeout_ms) {
        FailOrRevive(lane,
                     Status::DeadlineExceeded("no response within timeout"),
                     requests, results);
      }
    }
  }
}

// --- NetFetchExecutor -------------------------------------------------

void NetFetchExecutor::FetchWave(
    QueryInterface& server, std::span<const FetchRequest> requests,
    std::span<std::optional<StatusOr<ResultPage>>> results) {
  DEEPCRAWL_CHECK(&server == static_cast<QueryInterface*>(&client_))
      << "NetFetchExecutor must be driven with its own NetQueryClient";
  client_.FetchWave(requests, results);
}

}  // namespace deepcrawl
