// Wire-protocol bench: sustained queries/s and per-request latency
// percentiles of the epoll WebDB server over loopback TCP, across
// client concurrency levels (1 / 64 / 256 / 1000 pipelined
// connections), plus the end-to-end cost of moving a whole crawl from
// in-process fetches to real sockets.
//
// The paper's cost model counts communication rounds; this bench
// answers the systems question underneath the network executor: how
// many rounds per second one serving process sustains, and what a
// round costs when it crosses a real kernel socket instead of a
// function call. Everything is loopback and deterministic-seeded; the
// JSON metrics feed tools/check.sh's perf regression gate.

#include <poll.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/datagen/canned_workloads.h"
#include "src/datagen/workload_config.h"
#include "src/net/event_loop.h"
#include "src/net/net_client.h"
#include "src/net/tcp_server.h"

namespace deepcrawl {
namespace bench {
namespace {

constexpr uint32_t kConcurrencyLevels[] = {1, 64, 256, 1000};
constexpr uint32_t kRequestsPerLevel = 40'000;
constexpr uint32_t kPipelineDepth = 16;  // outstanding requests per conn

Table MakeTarget() {
  StatusOr<Table> table = GenerateTable(EbayConfig(0.02, /*seed=*/1));
  DEEPCRAWL_CHECK(table.ok()) << table.status().ToString();
  return std::move(*table);
}

// The serving process, on its own thread (exactly deepcrawl_serve's
// shape: one EventLoop, one WebDbTcpServer, backend called loop-side).
class LoopServer {
 public:
  explicit LoopServer(QueryInterface& backend, uint32_t num_values) {
    DEEPCRAWL_CHECK(loop_.Init().ok());
    TcpServerOptions options;
    options.max_connections = 2048;
    options.num_values = num_values;
    server_.emplace(loop_, backend, options);
    Status started = server_->Start();
    DEEPCRAWL_CHECK(started.ok()) << started.ToString();
    thread_ = std::thread([this] { loop_.Run(); });
  }
  ~LoopServer() {
    loop_.Stop();
    thread_.join();
    server_->Shutdown();
  }
  uint16_t port() const { return server_->port(); }

 private:
  EventLoop loop_;
  std::optional<WebDbTcpServer> server_;
  std::thread thread_;
};

struct LevelResult {
  uint32_t connections = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double wall_ms = 0.0;
};

// Drives `connections` pipelined connections with a fixed total request
// budget and measures throughput plus per-request latency (send-to-
// response, queueing included — the figure a crawl actually
// experiences).
LevelResult MeasureLevelOnce(uint16_t port, const Table& target,
                             uint32_t connections, uint32_t total_requests) {
  struct Lane {
    NetConnection conn;
    std::deque<uint64_t> send_time_us;  // one entry per in-flight request
    uint32_t quota = 0;  // requests this lane still has to send
    uint64_t next_id = 1;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  for (uint32_t i = 0; i < connections; ++i) {
    auto lane = std::make_unique<Lane>();
    Status opened = lane->conn.Open("127.0.0.1", port, /*timeout_ms=*/10'000);
    DEEPCRAWL_CHECK(opened.ok()) << opened.ToString();
    lane->quota = total_requests / connections +
                  (i < total_requests % connections ? 1 : 0);
    lanes.push_back(std::move(lane));
  }

  const uint32_t num_values = target.num_distinct_values();
  uint32_t next_value = 0;
  auto send_one = [&](Lane& lane) {
    WireRequest request;
    request.type = WireMessageType::kFetchPage;
    request.request_id = lane.next_id++;
    request.value = next_value++ % num_values;
    request.page_number = 0;
    lane.send_time_us.push_back(EventLoop::NowMicros());
    Status sent = lane.conn.Send(EncodeRequestFrame(request));
    DEEPCRAWL_CHECK(sent.ok()) << sent.ToString();
    --lane.quota;
  };

  std::vector<double> latencies_us;
  latencies_us.reserve(total_requests);
  uint64_t started_us = EventLoop::NowMicros();
  for (auto& lane : lanes) {
    for (uint32_t d = 0; d < kPipelineDepth && lane->quota > 0; ++d) {
      send_one(*lane);
    }
  }

  std::vector<struct pollfd> fds(lanes.size());
  uint32_t done = 0;
  while (done < total_requests) {
    for (size_t i = 0; i < lanes.size(); ++i) {
      fds[i].fd = lanes[i]->conn.fd();
      fds[i].events = static_cast<short>(
          POLLIN | (lanes[i]->conn.send_pending() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    int ready = poll(fds.data(), fds.size(), 10'000);
    DEEPCRAWL_CHECK_GT(ready, 0) << "bench stalled";
    for (size_t i = 0; i < lanes.size(); ++i) {
      Lane& lane = *lanes[i];
      if (fds[i].revents & POLLOUT) {
        Status flushed = lane.conn.TryFlushSend();
        DEEPCRAWL_CHECK(flushed.ok()) << flushed.ToString();
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        Status filled = lane.conn.FillFromSocket();
        DEEPCRAWL_CHECK(filled.ok()) << filled.ToString();
        WireServerMessage message;
        for (;;) {
          StatusOr<bool> next = lane.conn.NextMessage(&message);
          DEEPCRAWL_CHECK(next.ok()) << next.status().ToString();
          if (!*next) break;
          DEEPCRAWL_CHECK(message.type == WireMessageType::kPageResult);
          DEEPCRAWL_CHECK(!lane.send_time_us.empty());
          latencies_us.push_back(static_cast<double>(
              EventLoop::NowMicros() - lane.send_time_us.front()));
          lane.send_time_us.pop_front();
          ++done;
          if (lane.quota > 0) send_one(lane);
        }
      }
    }
  }
  double wall_s =
      static_cast<double>(EventLoop::NowMicros() - started_us) / 1e6;

  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](double p) {
    size_t index = static_cast<size_t>(p * (latencies_us.size() - 1));
    return latencies_us[index];
  };
  LevelResult result;
  result.connections = connections;
  result.qps = static_cast<double>(total_requests) / wall_s;
  result.p50_us = percentile(0.50);
  result.p99_us = percentile(0.99);
  result.wall_ms = wall_s * 1000.0;
  return result;
}

// Best-of-3 per level: server and client threads share cores, so a
// single rep is at the mercy of the scheduler; taking the best rep's
// throughput and the lowest observed percentiles makes the committed
// baseline stable enough for the 20% regression gate.
LevelResult MeasureLevel(uint16_t port, const Table& target,
                         uint32_t connections, uint32_t total_requests) {
  LevelResult best;
  for (int rep = 0; rep < 3; ++rep) {
    LevelResult r =
        MeasureLevelOnce(port, target, connections, total_requests);
    if (rep == 0) {
      best = r;
      continue;
    }
    best.qps = std::max(best.qps, r.qps);
    best.p50_us = std::min(best.p50_us, r.p50_us);
    best.p99_us = std::min(best.p99_us, r.p99_us);
    best.wall_ms = std::min(best.wall_ms, r.wall_ms);
  }
  return best;
}

std::vector<LevelResult> RunThroughputSweep(const Table& target) {
  WebDbServer backend(target, ServerOptions());
  LoopServer server(backend, target.num_distinct_values());
  std::vector<LevelResult> results;
  for (uint32_t connections : kConcurrencyLevels) {
    results.push_back(
        MeasureLevel(server.port(), target, connections, kRequestsPerLevel));
  }
  return results;
}

// The same greedy crawl, fetched in-process vs over loopback TCP
// (batch 32, 8 pipelined connections) — the wall-clock price of the
// wire. Best-of-3 per side.
struct CrawlWalls {
  double inprocess_ms = 0.0;
  double tcp_ms = 0.0;
  uint64_t rounds = 0;
};

CrawlWalls RunCrawlComparison(const Table& target) {
  CrawlWalls walls;
  for (int rep = 0; rep < 3; ++rep) {
    WebDbServer backend(target, ServerOptions());
    LocalStore store;
    GreedyLinkSelector selector(store);
    EngineOptions engine_options;
    engine_options.batch = 32;
    auto started = std::chrono::steady_clock::now();
    CrawlEngine engine(backend, selector, store, CrawlOptions{},
                       engine_options);
    engine.AddSeed(SeedValue(target, 0));
    StatusOr<CrawlResult> result = engine.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
    if (rep == 0 || ms < walls.inprocess_ms) walls.inprocess_ms = ms;
    walls.rounds = result->rounds;
  }
  for (int rep = 0; rep < 3; ++rep) {
    WebDbServer backend(target, ServerOptions());
    LoopServer server(backend, target.num_distinct_values());
    NetClientOptions net_options;
    net_options.port = server.port();
    net_options.connections = 8;
    StatusOr<std::unique_ptr<NetQueryClient>> client =
        NetQueryClient::Connect(net_options);
    DEEPCRAWL_CHECK(client.ok()) << client.status().ToString();
    NetFetchExecutor executor(**client);
    LocalStore store;
    GreedyLinkSelector selector(store);
    EngineOptions engine_options;
    engine_options.batch = 32;
    engine_options.shared_executor = &executor;
    auto started = std::chrono::steady_clock::now();
    CrawlEngine engine(**client, selector, store, CrawlOptions{},
                       engine_options);
    engine.AddSeed(SeedValue(target, 0));
    StatusOr<CrawlResult> result = engine.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
    if (rep == 0 || ms < walls.tcp_ms) walls.tcp_ms = ms;
    DEEPCRAWL_CHECK_EQ(result->rounds, walls.rounds)
        << "TCP crawl diverged from in-process";
  }
  return walls;
}

void PrintSweep(const std::vector<LevelResult>& results,
                const CrawlWalls& walls) {
  PrintBanner("wire protocol throughput (loopback TCP)",
              "n/a (systems bench for the network executor)",
              std::to_string(kRequestsPerLevel) +
                  " pipelined FetchPage rounds per concurrency level");
  TablePrinter table({"connections", "queries/s", "p50 us", "p99 us",
                      "wall ms"});
  for (const LevelResult& r : results) {
    table.AddRow({std::to_string(r.connections),
                  TablePrinter::FormatDouble(r.qps, 0),
                  TablePrinter::FormatDouble(r.p50_us, 1),
                  TablePrinter::FormatDouble(r.p99_us, 1),
                  TablePrinter::FormatDouble(r.wall_ms, 1)});
  }
  table.Print(std::cout);
  std::cout << "\ncrawl wall-clock (greedy, batch 32, " << walls.rounds
            << " rounds): in-process "
            << TablePrinter::FormatDouble(walls.inprocess_ms, 1)
            << "ms, loopback TCP "
            << TablePrinter::FormatDouble(walls.tcp_ms, 1) << "ms ("
            << TablePrinter::FormatDouble(walls.tcp_ms / walls.inprocess_ms,
                                          2)
            << "x)\n";
}

void RunJsonSuite(const Table& target, const std::string& json_path) {
  // The crawl runs first, so its wall clock does not time the heap the
  // 1000-connection sweep leaves behind.
  CrawlWalls walls = RunCrawlComparison(target);
  std::vector<LevelResult> results = RunThroughputSweep(target);
  BenchJson json("net");
  for (const LevelResult& r : results) {
    std::string suffix = std::to_string(r.connections) + "conn";
    json.Add("qps_" + suffix, r.qps, "queries/s",
             /*higher_is_better=*/true);
  }
  // Latency gates only at the extremes: percentiles of the middle
  // levels wobble with scheduler noise without adding signal.
  json.Add("p50_us_1conn", results.front().p50_us, "us",
           /*higher_is_better=*/false);
  json.Add("p99_us_1000conn", results.back().p99_us, "us",
           /*higher_is_better=*/false);
  json.Add("crawl_wall_ms_inprocess", walls.inprocess_ms, "ms",
           /*higher_is_better=*/false);
  json.Add("crawl_wall_ms_tcp", walls.tcp_ms, "ms",
           /*higher_is_better=*/false);
  json.WriteFile(json_path);
}

}  // namespace
}  // namespace bench
}  // namespace deepcrawl

int main(int argc, char** argv) {
  deepcrawl::Table target = deepcrawl::bench::MakeTarget();
  std::string json_path = deepcrawl::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    deepcrawl::bench::RunJsonSuite(target, json_path);
    return 0;
  }
  deepcrawl::bench::CrawlWalls walls =
      deepcrawl::bench::RunCrawlComparison(target);
  std::vector<deepcrawl::bench::LevelResult> results =
      deepcrawl::bench::RunThroughputSweep(target);
  deepcrawl::bench::PrintSweep(results, walls);
  return 0;
}
