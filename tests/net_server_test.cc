// End-to-end loopback tests for the TCP WebDB server and the network
// client (src/net/): handshake schema, fetch parity against the
// in-process backend for every query form, fault propagation (status
// codes and retry-after hints over the wire), pipelining order,
// connection shedding, malformed-frame handling (mid-burst too),
// server-restart reconnection, the pipelined fetch executor, and the
// event loop's Status on failure.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/net/event_loop.h"
#include "src/net/net_client.h"
#include "src/net/tcp_server.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/checkpoint_io.h"
#include "src/util/logging.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;

// Runs a WebDbTcpServer on its own EventLoop thread. Stats are only
// read after Stop() (the join synchronizes with the loop thread's
// writes).
class LoopServer {
 public:
  LoopServer(QueryInterface& backend, TcpServerOptions options) {
    Status init = loop_.Init();
    DEEPCRAWL_CHECK(init.ok()) << init.ToString();
    server_.emplace(loop_, backend, options);
    Status started = server_->Start();
    DEEPCRAWL_CHECK(started.ok()) << started.ToString();
    thread_ = std::thread([this] { loop_.Run(); });
  }
  ~LoopServer() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      loop_.Stop();
      thread_.join();
      server_->Shutdown();
    }
  }

  uint16_t port() const { return server_->port(); }
  const WebDbTcpServer& server() const { return *server_; }

 private:
  EventLoop loop_;
  std::optional<WebDbTcpServer> server_;
  std::thread thread_;
};

TcpServerOptions OptionsFor(const Table& table) {
  TcpServerOptions options;
  options.num_values = table.num_distinct_values();
  return options;
}

NetClientOptions ClientOptions(uint16_t port, uint32_t connections = 1) {
  NetClientOptions options;
  options.port = port;
  options.connections = connections;
  // Tests should fail fast, not hang for the production 15s window.
  options.reconnect_window_ms = 3000;
  options.reconnect_backoff_ms = 5;
  return options;
}

void ExpectSamePage(const StatusOr<ResultPage>& got,
                    const StatusOr<ResultPage>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << (got.ok() ? want.status().ToString() : got.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().retry_after_rounds(),
              want.status().retry_after_rounds());
    return;
  }
  const ResultPage& g = got.value();
  const ResultPage& w = want.value();
  EXPECT_EQ(g.page_number, w.page_number);
  EXPECT_EQ(g.total_matches, w.total_matches);
  EXPECT_EQ(g.has_more, w.has_more);
  ASSERT_EQ(g.records.size(), w.records.size());
  for (size_t i = 0; i < w.records.size(); ++i) {
    EXPECT_EQ(g.records[i].id, w.records[i].id);
    EXPECT_EQ(std::vector<ValueId>(g.records[i].values.begin(),
                                   g.records[i].values.end()),
              std::vector<ValueId>(w.records[i].values.begin(),
                                   w.records[i].values.end()))
        << "record " << i;
  }
}

TEST(EventLoopTest, RunWithoutInitReturnsFailedPrecondition) {
  // A loop failure surfaces as a Status from Run(), never an abort.
  EventLoop loop;
  Status status = loop.Run();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
}

TEST(NetServerTest, HandshakeExposesInterfaceSchema) {
  Table table = MakeFigure1Table();
  ServerOptions server_options;
  server_options.page_size = 2;
  server_options.result_limit = 4;
  WebDbServer backend(table, server_options);
  LoopServer loop_server(backend, OptionsFor(table));

  StatusOr<std::unique_ptr<NetQueryClient>> client =
      NetQueryClient::Connect(ClientOptions(loop_server.port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->options().page_size, server_options.page_size);
  EXPECT_EQ((*client)->options().result_limit, server_options.result_limit);
  EXPECT_EQ((*client)->options().reports_total_count,
            server_options.reports_total_count);
  for (ValueId v = 0; v < table.num_distinct_values() + 3; ++v) {
    EXPECT_EQ((*client)->IsQueriableValue(v), backend.IsQueriableValue(v))
        << "value " << v;
  }
}

TEST(NetServerTest, EveryFetchFormMatchesInProcess) {
  Table table = MakeFigure1Table();
  ServerOptions server_options;
  server_options.page_size = 2;
  WebDbServer backend(table, server_options);
  WebDbServer reference(table, server_options);
  LoopServer loop_server(backend, OptionsFor(table));

  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(ClientOptions(loop_server.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NetQueryClient& client = **connected;

  ValueId a2 = GetValueId(table, "A", "a2");
  ValueId c2 = GetValueId(table, "C", "c2");
  AttributeId attr_b = table.schema().FindAttribute("B").value();

  for (uint32_t page = 0; page < 3; ++page) {
    ExpectSamePage(client.FetchPage(a2, page),
                   reference.FetchPage(a2, page));
  }
  ExpectSamePage(client.FetchPageKeywordOf(a2, 0),
                 reference.FetchPageKeywordOf(a2, 0));

  // Only the crawl's two query forms are served: the other three fail
  // with kFailedPrecondition on the client, the in-process server and
  // the fault proxy alike, with nothing sent, no fault drawn and no
  // round or query charged (the proxy fails every fetch it forwards).
  WebDbServer local(table, server_options);
  WebDbServer proxied(table, server_options);
  FaultProfile always_down;
  always_down.unavailable_rate = 1.0;
  FaultyServer faulty(proxied, always_down, /*seed=*/3);
  std::vector<ValueId> conjunction = {a2, c2};
  for (QueryInterface* source :
       std::initializer_list<QueryInterface*>{&client, &local, &faulty}) {
    const uint64_t rounds_before = source->communication_rounds();
    const uint64_t queries_before = source->queries_issued();
    for (const StatusOr<ResultPage>& retired :
         {source->FetchPageByText(attr_b, "b2", 0),
          source->FetchPageByKeyword("c2", 0),
          source->FetchPageConjunctive(conjunction, 0)}) {
      EXPECT_EQ(retired.status().code(), StatusCode::kFailedPrecondition)
          << retired.status().ToString();
    }
    EXPECT_EQ(source->communication_rounds(), rounds_before);
    EXPECT_EQ(source->queries_issued(), queries_before);
  }
  EXPECT_EQ(faulty.fault_counters().total(), 0u);

  // Error paths cross the wire as faithfully as pages do.
  ExpectSamePage(client.FetchPage(a2, 999), reference.FetchPage(a2, 999));
  ExpectSamePage(client.FetchPage(kInvalidValueId, 0),
                 reference.FetchPage(kInvalidValueId, 0));

  // One attempt = one round, page 0 = one query: the network client
  // must meter exactly like the in-process server.
  EXPECT_EQ(client.communication_rounds(), reference.communication_rounds());
  EXPECT_EQ(client.queries_issued(), reference.queries_issued());

  // Socket round trips are real, so the RTT counters must have
  // recorded one sample per fetch.
  EXPECT_EQ(client.rtt_counters().fetches, client.communication_rounds());
  EXPECT_GT(client.rtt_counters().max_rtt_us, 0u);
}

TEST(NetServerTest, KeyedFaultsMatchInProcessThroughTcp) {
  Table table = MakeFigure1Table();
  ServerOptions server_options;
  server_options.page_size = 2;
  WebDbServer backend(table, server_options);
  FaultProfile profile;
  profile.unavailable_rate = 0.3;
  profile.rate_limit_rate = 0.3;
  profile.retry_after_rounds = 6;
  FaultyServer faulty(backend, profile, /*seed=*/11);
  faulty.set_keyed_faults(true);
  LoopServer loop_server(faulty, OptionsFor(table));

  WebDbServer reference_backend(table, server_options);
  FaultyServer reference(reference_backend, profile, /*seed=*/11);
  reference.set_keyed_faults(true);

  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(ClientOptions(loop_server.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NetQueryClient& client = **connected;

  // The same fetch sequence must meet the same injected faults: keyed
  // decisions depend only on (query, page, attempt), which both sides
  // count identically.
  int rate_limits = 0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
      StatusOr<ResultPage> over_wire = client.FetchPage(v, 0);
      StatusOr<ResultPage> in_process = reference.FetchPage(v, 0);
      ExpectSamePage(over_wire, in_process);
      if (!over_wire.ok() &&
          over_wire.status().code() == StatusCode::kResourceExhausted) {
        ++rate_limits;
        // The retry-after hint survived the wire (checked for equality
        // in ExpectSamePage; here for presence).
        EXPECT_EQ(over_wire.status().retry_after_rounds(),
                  std::optional<uint32_t>(6));
      }
    }
  }
  // The profile injects rate limits at 30%; a silent zero would mean
  // the fault proxy never engaged.
  EXPECT_GT(rate_limits, 0);
}

TEST(NetServerTest, PipelinedRequestsAnsweredInOrder) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  LoopServer loop_server(backend, OptionsFor(table));

  NetConnection conn;
  Status opened = conn.Open("127.0.0.1", loop_server.port(), 3000);
  ASSERT_TRUE(opened.ok()) << opened.ToString();

  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    WireRequest request;
    request.type = WireMessageType::kFetchPage;
    request.request_id = 1000 + i;
    request.value = static_cast<ValueId>(i % table.num_distinct_values());
    request.page_number = 0;
    Status sent = conn.Send(EncodeRequestFrame(request));
    ASSERT_TRUE(sent.ok()) << sent.ToString();
  }
  Status flushed = conn.SendAll(3000);
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<WireServerMessage> reply = conn.ReceiveMessage(3000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, WireMessageType::kPageResult);
    EXPECT_EQ(reply->request_id, 1000u + i) << "response out of order";
  }
}

TEST(NetServerTest, ResponseLatencyPreservesOrder) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  TcpServerOptions tcp_options = OptionsFor(table);
  tcp_options.latency_us = 2000;
  LoopServer loop_server(backend, tcp_options);

  NetConnection conn;
  ASSERT_TRUE(conn.Open("127.0.0.1", loop_server.port(), 3000).ok());
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    WireRequest request;
    request.request_id = 50 + i;
    request.value = static_cast<ValueId>(i % table.num_distinct_values());
    ASSERT_TRUE(conn.Send(EncodeRequestFrame(request)).ok());
  }
  ASSERT_TRUE(conn.SendAll(3000).ok());
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<WireServerMessage> reply = conn.ReceiveMessage(5000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id, 50u + i) << "delayed response out of order";
  }
}

TEST(NetServerTest, ConnectionCapShedsWithRetryableGoAway) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  TcpServerOptions tcp_options = OptionsFor(table);
  tcp_options.max_connections = 1;
  tcp_options.shed_retry_after_rounds = 8;
  LoopServer loop_server(backend, tcp_options);

  NetConnection first;
  ASSERT_TRUE(first.Open("127.0.0.1", loop_server.port(), 3000).ok());

  NetConnection second;
  Status shed = second.Open("127.0.0.1", loop_server.port(), 3000);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.retry_after_rounds(), std::optional<uint32_t>(8));

  // The surviving connection still works.
  WireRequest request;
  request.request_id = 1;
  request.value = 0;
  ASSERT_TRUE(first.Send(EncodeRequestFrame(request)).ok());
  ASSERT_TRUE(first.SendAll(3000).ok());
  StatusOr<WireServerMessage> reply = first.ReceiveMessage(3000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  // Closing the first connection frees the slot for a newcomer.
  first.Close();
  NetConnection third;
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (third.Open("127.0.0.1", loop_server.port(), 3000).ok()) break;
    usleep(10'000);
  }
  ASSERT_TRUE(third.is_open()) << "slot never freed after close";

  loop_server.Stop();
  // At least the second connection was shed (the reopen loop may have
  // collected a few more GoAways while the close was still in flight).
  EXPECT_GE(loop_server.server().connections_shed(), 1u);
}

// A connect the server sheds keeps its GoAway's retry-after hint when it
// leaves the reconnect window, so the engine's RetryPolicy can pace the
// next attempt by it.
TEST(NetServerTest, ShedConnectKeepsRetryAfterHint) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  TcpServerOptions tcp_options = OptionsFor(table);
  tcp_options.max_connections = 1;
  tcp_options.shed_retry_after_rounds = 8;
  LoopServer loop_server(backend, tcp_options);

  StatusOr<std::unique_ptr<NetQueryClient>> holder =
      NetQueryClient::Connect(ClientOptions(loop_server.port()));
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();

  // A zero window makes exactly one attempt, with the full request
  // timeout, so the GoAway is its last failure.
  NetClientOptions options = ClientOptions(loop_server.port());
  options.reconnect_window_ms = 0;
  StatusOr<std::unique_ptr<NetQueryClient>> shed =
      NetQueryClient::Connect(options);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.status().retry_after_rounds(), std::optional<uint32_t>(8))
      << shed.status().ToString();
}

TEST(NetServerTest, MalformedFrameClosesConnection) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  LoopServer loop_server(backend, OptionsFor(table));

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loop_server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A tiny forged length prefix: unframeable, so the server must cut
  // the connection (read returns EOF here) rather than serve garbage.
  const char garbage[] = {4, 0, 0, 0, 'J', 'U', 'N', 'K'};
  ASSERT_EQ(write(fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  char buffer[64];
  ssize_t n = read(fd, buffer, sizeof(buffer));
  EXPECT_EQ(n, 0) << "server kept the connection alive past corruption";
  close(fd);

  loop_server.Stop();
  EXPECT_EQ(loop_server.server().protocol_errors(), 1u);
}

// A request of a retired type (4-6), in the layout that type used to
// have, is a protocol error like a corrupt frame: the server closes the
// connection instead of answering.
TEST(NetServerTest, RetiredRequestTypeClosesConnection) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  LoopServer loop_server(backend, OptionsFor(table));

  for (uint8_t retired : {4, 5, 6}) {
    SCOPED_TRACE(static_cast<int>(retired));
    NetConnection conn;
    ASSERT_TRUE(conn.Open("127.0.0.1", loop_server.port(), 3000).ok());
    CheckpointWriter body;
    body.WriteU8(retired);
    body.WriteU64(1);  // request id
    if (retired == 4) body.WriteU32(0);  // attribute id
    if (retired == 6) {
      body.WriteU64(1);  // value count
      body.WriteU32(0);
    } else {
      body.WriteString("a1");  // text
    }
    body.WriteU32(0);  // page number
    std::string framed = FrameCheckpoint(body.buffer(), kWireProtocolVersion);
    CheckpointWriter frame;
    frame.WriteU32(static_cast<uint32_t>(framed.size()));
    std::string bytes = frame.buffer() + framed;
    ASSERT_TRUE(conn.Send(bytes).ok());
    ASSERT_TRUE(conn.SendAll(3000).ok());
    StatusOr<WireServerMessage> reply = conn.ReceiveMessage(3000);
    ASSERT_FALSE(reply.ok()) << "server answered a retired request type";
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
        << reply.status().ToString();
  }

  loop_server.Stop();
  EXPECT_EQ(loop_server.server().protocol_errors(), 3u);
}

TEST(NetServerTest, CorruptFrameMidBurstStillAnswersEarlierRequests) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  LoopServer loop_server(backend, OptionsFor(table));

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loop_server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // One write: the handshake, three good fetches, then a forged length
  // prefix. The server must answer every request it served before the
  // corruption, in order, and only then close the connection.
  std::string burst = EncodeHelloFrame();
  for (uint64_t id = 1; id <= 3; ++id) {
    WireRequest request;
    request.request_id = id;
    request.value = static_cast<ValueId>(id - 1);
    burst.append(EncodeRequestFrame(request));
  }
  const char forged[] = {4, 0, 0, 0};
  burst.append(forged, sizeof(forged));
  ASSERT_EQ(write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  std::string stream;
  char buffer[4096];
  for (;;) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    ASSERT_GE(n, 0) << "connection reset instead of closed";
    if (n == 0) break;  // EOF
    stream.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  std::vector<WireServerMessage> messages;
  size_t pos = 0;
  while (pos + 4 <= stream.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(stream[pos + i]))
             << (8 * i);
    }
    ASSERT_LE(pos + 4 + len, stream.size()) << "truncated response frame";
    StatusOr<std::string_view> body = UnframeCheckpoint(
        std::string_view(stream).substr(pos + 4, len), kWireProtocolVersion);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    StatusOr<WireServerMessage> message = DecodeServerMessage(*body);
    ASSERT_TRUE(message.ok()) << message.status().ToString();
    messages.push_back(std::move(*message));
    pos += 4 + len;
  }
  EXPECT_EQ(pos, stream.size());
  ASSERT_EQ(messages.size(), 4u);
  EXPECT_EQ(messages[0].type, WireMessageType::kServerInfo);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(messages[id].type, WireMessageType::kPageResult);
    EXPECT_EQ(messages[id].request_id, id);
    EXPECT_TRUE(messages[id].status.ok());
  }

  loop_server.Stop();
  EXPECT_EQ(loop_server.server().protocol_errors(), 1u);
}

TEST(NetServerTest, ClientReconnectsAcrossServerRestart) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  auto first = std::make_unique<LoopServer>(backend, OptionsFor(table));
  uint16_t port = first->port();

  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(ClientOptions(port));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NetQueryClient& client = **connected;
  ASSERT_TRUE(client.FetchPage(0, 0).ok());
  EXPECT_EQ(client.reconnects(), 0u);

  // Kill the server, restart on the same port (SO_REUSEADDR), and the
  // next fetch must transparently reconnect and retransmit.
  first.reset();
  TcpServerOptions restart_options = OptionsFor(table);
  restart_options.port = port;
  LoopServer second(backend, restart_options);

  StatusOr<ResultPage> refetched = client.FetchPage(0, 0);
  ASSERT_TRUE(refetched.ok()) << refetched.status().ToString();
  EXPECT_GE(client.reconnects(), 1u);

  // With no server at all, the reconnect window must expire into a
  // retryable kUnavailable instead of hanging forever.
  second.Stop();
  StatusOr<ResultPage> dead = client.FetchPage(0, 0);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
}

// A zero reconnect window means "connect once, never retry", not
// "never connect": the first attempt always runs.
TEST(NetServerTest, ZeroReconnectWindowStillConnectsOnce) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  auto server = std::make_unique<LoopServer>(backend, OptionsFor(table));
  uint16_t port = server->port();

  NetClientOptions options = ClientOptions(port);
  options.reconnect_window_ms = 0;
  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ExpectSamePage((*connected)->FetchPage(0, 0), backend.FetchPage(0, 0));

  // With the server gone, the single attempt fails fast into a
  // retryable kUnavailable that names the last connect failure: first
  // when the open connection turns out dead, then when the client finds
  // it closed at the start of the next fetch.
  server.reset();
  for (int fetch = 0; fetch < 2; ++fetch) {
    SCOPED_TRACE(fetch);
    StatusOr<ResultPage> dead = (*connected)->FetchPage(0, 0);
    ASSERT_FALSE(dead.ok());
    EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(dead.status().message().find("(last:"), std::string::npos)
        << dead.status().ToString();
  }
  EXPECT_EQ((*connected)->reconnects(), 0u);
}

// A serial fetch is a wave of one: it releases the previous fetch's
// page before it starts, so a long serial crawl holds exactly one page
// and meters exactly like the in-process server.
TEST(NetServerTest, SerialFetchRetainsOnlyTheLastPage) {
  Table table = MakeFigure1Table();
  ServerOptions server_options;
  server_options.page_size = 2;
  WebDbServer backend(table, server_options);
  WebDbServer reference(table, server_options);
  LoopServer loop_server(backend, OptionsFor(table));

  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(ClientOptions(loop_server.port()));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NetQueryClient& client = **connected;

  for (int sweep = 0; sweep < 5; ++sweep) {
    for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
      for (uint32_t page = 0; page < 2; ++page) {
        StatusOr<ResultPage> fetched = client.FetchPage(v, page);
        ExpectSamePage(fetched, reference.FetchPage(v, page));
        EXPECT_EQ(client.retained_pages(), fetched.ok() ? 1u : 0u);
      }
    }
  }
  EXPECT_EQ(client.communication_rounds(), reference.communication_rounds());
  EXPECT_EQ(client.queries_issued(), reference.queries_issued());
}

// Accepts, answers the handshake, then swallows every request without
// ever responding — the pathological "reachable but silent" source.
class SilentServer {
 public:
  SilentServer() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    DEEPCRAWL_CHECK(listen_fd_ >= 0);
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    DEEPCRAWL_CHECK(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0);
    DEEPCRAWL_CHECK(listen(listen_fd_, 8) == 0);
    socklen_t len = sizeof(addr);
    DEEPCRAWL_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0);
    port_ = ntohs(addr.sin_port);
    WireServerInfo info;
    info.num_values = 1;
    info.queriable_bitmap.assign(1, 1);
    info_frame_ = EncodeServerInfoFrame(info);
    thread_ = std::thread([this] { Serve(); });
  }
  ~SilentServer() {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
    thread_.join();
  }
  uint16_t port() const { return port_; }

 private:
  void Serve() {
    for (;;) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      // Complete the handshake so Open() succeeds, then never answer:
      // discard input until the client gives up and hangs up.
      ssize_t written = write(fd, info_frame_.data(), info_frame_.size());
      char buf[4096];
      while (written > 0 && read(fd, buf, sizeof(buf)) > 0) {
      }
      close(fd);
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string info_frame_;
  std::thread thread_;
};

TEST(NetServerTest, SilentServerFailsAfterBoundedAttempts) {
  SilentServer server;
  NetClientOptions options;
  options.port = server.port();
  options.request_timeout_ms = 100;
  options.request_attempts = 2;
  options.reconnect_window_ms = 2000;
  options.reconnect_backoff_ms = 5;
  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();

  // Every reconnect succeeds and every round times out; without the
  // attempt cap this fetch would loop forever. The cap must surface
  // the timeout (a retryable status) in bounded wall time.
  auto started = std::chrono::steady_clock::now();
  StatusOr<ResultPage> fetched = (*connected)->FetchPage(0, 0);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed.count(), 3000) << "attempt cap did not bound the fetch";
}

// Completes the handshake, announcing `num_values` values (all
// queriable), then answers every fetch with one fixed page, however
// malformed: EncodeResponseFrame writes what it is given, so the
// forgery reaches the client with valid framing and checksum. Each
// connection gets its own thread, so a pipelined client's lanes all
// complete their handshakes; past kMaxConnections a connection is
// closed at once, so a client that reconnects without bound fails
// instead of piling up threads.
class ForgingServer {
 public:
  ForgingServer(const ResultPage& page, uint32_t num_values) : page_(page) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    DEEPCRAWL_CHECK(listen_fd_ >= 0);
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    DEEPCRAWL_CHECK(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0);
    DEEPCRAWL_CHECK(listen(listen_fd_, 8) == 0);
    socklen_t len = sizeof(addr);
    DEEPCRAWL_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0);
    port_ = ntohs(addr.sin_port);
    WireServerInfo info;
    info.num_values = num_values;
    info.queriable_bitmap.assign((num_values + 7) / 8, 0xFF);
    info_frame_ = EncodeServerInfoFrame(info);
    acceptor_ = std::thread([this] { Accept(); });
  }
  ForgingServer(const ForgingServer&) = delete;
  ForgingServer& operator=(const ForgingServer&) = delete;
  ~ForgingServer() {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
    acceptor_.join();
    for (std::thread& connection : connections_) connection.join();
  }
  uint16_t port() const { return port_; }

 private:
  static constexpr size_t kMaxConnections = 32;

  // Only the acceptor thread touches connections_ until the destructor
  // joins it.
  void Accept() {
    for (;;) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      if (connections_.size() >= kMaxConnections) {
        close(fd);
        continue;
      }
      connections_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  // Runs until the client hangs up.
  void Serve(int fd) {
    FrameAssembler assembler;
    bool open = write(fd, info_frame_.data(), info_frame_.size()) > 0;
    char buf[4096];
    while (open) {
      ssize_t got = read(fd, buf, sizeof(buf));
      if (got <= 0) break;
      assembler.Append(std::string_view(buf, static_cast<size_t>(got)));
      std::string_view body;
      for (;;) {
        StatusOr<bool> next = assembler.Next(&body);
        if (!next.ok()) open = false;
        if (!next.ok() || !*next) break;
        StatusOr<WireRequest> request = DecodeRequest(body);
        if (!request.ok() || request->type == WireMessageType::kHello) {
          continue;
        }
        std::string reply = EncodeResponseFrame(request->request_id,
                                                StatusOr<ResultPage>(page_));
        if (write(fd, reply.data(), reply.size()) <= 0) {
          open = false;
          break;
        }
      }
    }
    close(fd);
  }

  const ResultPage& page_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string info_frame_;
  std::vector<std::thread> connections_;
  std::thread acceptor_;
};

// A page the crawl's store cannot hold is a protocol error at the
// client, whichever path fetched it: a record with no values, record
// id kInvalidRecordId, or a value id at or above the handshake's
// num_values (the engine and store would size per-value arrays by it).
// Each comes back as kInvalidArgument within the attempt cap, and a
// crawl over it stops with that Status instead of aborting.
TEST(NetServerTest, ForgedPagesAreProtocolErrorsOnEveryPath) {
  constexpr uint32_t kNumValues = 16;
  const std::vector<ValueId> good = {0, 1};
  const std::vector<ValueId> none = {};
  const std::vector<ValueId> at_bound = {0, kNumValues};
  const std::vector<ValueId> huge = {0xFFFFFFF0u};
  struct Forgery {
    const char* name;
    ReturnedRecord record;
    const char* message;
  };
  const Forgery forgeries[] = {
      {"no values", {5, none}, "record without values"},
      {"invalid id", {kInvalidRecordId, good}, "record id out of range"},
      {"value at num_values", {5, at_bound}, "outside the server's 16 values"},
      {"huge value", {5, huge}, "outside the server's 16 values"},
  };
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.name);
    ResultPage page;
    page.records.push_back({4, good});  // a valid record ahead of it
    page.records.push_back(forgery.record);
    ForgingServer server(page, kNumValues);
    NetClientOptions options = ClientOptions(server.port(), 2);
    options.request_attempts = 2;
    auto expect_protocol_error = [&](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_NE(status.message().find(forgery.message), std::string::npos)
          << status.ToString();
    };

    // Serial fetch: a wave of one on the primary connection.
    {
      StatusOr<std::unique_ptr<NetQueryClient>> client =
          NetQueryClient::Connect(options);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      StatusOr<ResultPage> fetched = (*client)->FetchPage(0, 0);
      ASSERT_FALSE(fetched.ok());
      expect_protocol_error(fetched.status());
    }
    // Pipelined wave over two connections.
    {
      StatusOr<std::unique_ptr<NetQueryClient>> client =
          NetQueryClient::Connect(options);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      NetFetchExecutor executor(**client);
      std::vector<FetchRequest> requests;
      for (ValueId v = 0; v < 4; ++v) requests.push_back({v, 0, false});
      std::vector<std::optional<StatusOr<ResultPage>>> results(
          requests.size());
      executor.FetchWave(**client, requests, results);
      for (const auto& result : results) {
        ASSERT_TRUE(result.has_value());
        ASSERT_FALSE(result->ok());
        expect_protocol_error(result->status());
      }
    }
    // A crawl, serial and batched: Run() returns the error and the
    // store holds nothing.
    for (uint32_t batch : {0u, 4u}) {
      StatusOr<std::unique_ptr<NetQueryClient>> client =
          NetQueryClient::Connect(options);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      NetFetchExecutor executor(**client);
      LocalStore store;
      GreedyLinkSelector selector(store);
      EngineOptions engine_options;
      if (batch > 0) {
        engine_options.batch = batch;
        engine_options.shared_executor = &executor;
      }
      CrawlEngine engine(**client, selector, store, CrawlOptions{},
                         engine_options);
      engine.AddSeed(0);
      StatusOr<CrawlResult> result = engine.Run();
      ASSERT_FALSE(result.ok());
      expect_protocol_error(result.status());
      EXPECT_EQ(store.num_records(), 0u);
    }
  }
}

TEST(NetServerTest, PipelinedClientResetMidDrainLeavesServerHealthy) {
  Table table = MakeFigure1Table();
  WebDbServer backend(table, ServerOptions{});
  LoopServer loop_server(backend, OptionsFor(table));

  // Abortive-close clients: pipeline a big burst, then RST without
  // reading a byte, so the server's response writes start failing
  // between requests of the same drain. Regression target: a failed
  // flush inside the drain loop used to destroy the connection while
  // the loop kept using it (use-after-free under ASan). The sleep
  // sweep varies where the RST lands relative to the drain.
  for (int round = 0; round < 50; ++round) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(loop_server.port());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::string burst = EncodeHelloFrame();
    for (int i = 0; i < 1024; ++i) {
      WireRequest request;
      request.request_id = static_cast<uint64_t>(i + 1);
      request.value = static_cast<ValueId>(i % table.num_distinct_values());
      burst.append(EncodeRequestFrame(request));
    }
    ASSERT_EQ(write(fd, burst.data(), burst.size()),
              static_cast<ssize_t>(burst.size()));
    usleep(static_cast<useconds_t>(round * 20));
    struct linger abort_close = {1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close, sizeof(abort_close));
    close(fd);  // linger(0) + unread responses: RST, not FIN
  }

  // The server survived every reset and still serves a polite client.
  NetConnection conn;
  Status opened = conn.Open("127.0.0.1", loop_server.port(), 3000);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  WireRequest request;
  request.request_id = 7;
  request.value = 0;
  ASSERT_TRUE(conn.Send(EncodeRequestFrame(request)).ok());
  ASSERT_TRUE(conn.SendAll(3000).ok());
  StatusOr<WireServerMessage> reply = conn.ReceiveMessage(3000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 7u);
}

TEST(NetServerTest, ExecutorWaveMatchesInProcessResults) {
  Table table = MakeFigure1Table();
  ServerOptions server_options;
  server_options.page_size = 2;
  WebDbServer backend(table, server_options);
  WebDbServer reference(table, server_options);
  LoopServer loop_server(backend, OptionsFor(table));

  StatusOr<std::unique_ptr<NetQueryClient>> connected =
      NetQueryClient::Connect(ClientOptions(loop_server.port(),
                                            /*connections=*/3));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  NetQueryClient& client = **connected;
  NetFetchExecutor executor(client);

  // Two waves, so the second exercises the purge-then-reuse path.
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<FetchRequest> requests;
    for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
      requests.push_back(FetchRequest{v, 0, false});
      requests.push_back(FetchRequest{v, 1, false});
      requests.push_back(FetchRequest{v, 0, true});
    }
    std::vector<std::optional<StatusOr<ResultPage>>> results(requests.size());
    executor.FetchWave(client, requests, results);
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(results[i].has_value()) << "slot " << i << " unfilled";
      StatusOr<ResultPage> expected =
          requests[i].keyword
              ? reference.FetchPageKeywordOf(requests[i].value,
                                             requests[i].page_number)
              : reference.FetchPage(requests[i].value,
                                    requests[i].page_number);
      ExpectSamePage(*results[i], expected);
    }
  }
  EXPECT_EQ(client.communication_rounds(), reference.communication_rounds());
  EXPECT_EQ(client.queries_issued(), reference.queries_issued());
}

}  // namespace
}  // namespace deepcrawl
