// deepcrawl_serve — serve a (simulated) WebDB over TCP.
//
// Builds the same target database and fault stack deepcrawl_crawl would
// build in-process — the flag handling is shared, see
// tools/workload_setup.h — and puts it behind a WebDbTcpServer so a
// crawl can run over real sockets:
//
//   deepcrawl_serve --workload=ebay --scale=0.1 --port=9317 &
//   deepcrawl_crawl --workload=ebay --scale=0.1 --policy=greedy ...
//       --connect=127.0.0.1:9317 --connections=8 --batch=32
//
// The crawl side must repeat the workload/interface flags: the client
// builds its selector bookkeeping from a locally constructed catalog
// and verifies the server's ServerInfo matches.
//
// Faults are injected HERE (keyed by query, page and attempt, so
// decisions never depend on arrival order):
//
//   deepcrawl_serve --workload=ebay --fault-profile=flaky --fault-seed=7
//
// --port=0 picks an ephemeral port; the choice is printed on stdout and
// optionally written to --port-file so scripts can wait for it. SIGINT/
// SIGTERM stop the loop cleanly.

#include <signal.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "src/net/event_loop.h"
#include "src/net/tcp_server.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/flags.h"
#include "tools/workload_setup.h"

namespace deepcrawl {
namespace {

struct Options {
  WorkloadFlagOptions workload;
  ServerFlagOptions server;
  FaultFlagOptions fault;

  std::string bind = "127.0.0.1";
  int64_t port = 0;
  std::string port_file;
  bool counts = true;
  int64_t max_connections = 1024;
  int64_t shed_retry_after = 4;
  int64_t latency_us = 0;
  bool help = false;
};

EventLoop* g_loop = nullptr;

// EventLoop::Stop is async-signal-safe (atomic flag + eventfd write).
void HandleStopSignal(int) {
  if (g_loop != nullptr) g_loop->Stop();
}

Status Run(const Options& options) {
  std::optional<AdversarialGroundTruth> adv;
  DEEPCRAWL_ASSIGN_OR_RETURN(Table target,
                             LoadTargetTable(options.workload, adv));
  std::cout << "target: " << target.num_records() << " records, "
            << target.num_distinct_values() << " distinct values\n";

  ServerOptions server_options = BuildServerOptions(options.server, adv);
  server_options.reports_total_count = options.counts;
  WebDbServer backend(target, server_options);

  DEEPCRAWL_ASSIGN_OR_RETURN(FaultProfile profile,
                             BuildFaultProfile(options.fault));
  std::optional<FaultyServer> faulty;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile,
                   static_cast<uint64_t>(options.fault.fault_seed));
    std::cout << "faults: unavailable=" << profile.unavailable_rate
              << " timeout=" << profile.timeout_rate
              << " rate-limit=" << profile.rate_limit_rate
              << " truncate=" << profile.truncate_rate
              << " duplicate=" << profile.duplicate_rate << "\n";
  }
  QueryInterface& served =
      faulty.has_value() ? static_cast<QueryInterface&>(*faulty) : backend;

  EventLoop loop;
  DEEPCRAWL_RETURN_IF_ERROR(loop.Init());

  TcpServerOptions tcp_options;
  tcp_options.bind_address = options.bind;
  tcp_options.port = static_cast<uint16_t>(options.port);
  tcp_options.max_connections =
      static_cast<uint32_t>(options.max_connections);
  tcp_options.shed_retry_after_rounds =
      static_cast<uint32_t>(options.shed_retry_after);
  tcp_options.num_values =
      static_cast<uint32_t>(target.num_distinct_values());
  tcp_options.latency_us = static_cast<uint64_t>(options.latency_us);
  WebDbTcpServer server(loop, served, tcp_options);
  DEEPCRAWL_RETURN_IF_ERROR(server.Start());

  // Port first to stdout (flushed) so `deepcrawl_serve ... | head -1`
  // and the port file are both race-free ways to learn the binding.
  std::cout << "listening on " << options.bind << ":" << server.port()
            << std::endl;
  if (!options.port_file.empty()) {
    std::string tmp = options.port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      return Status::NotFound("cannot create '" + tmp + "'");
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
    std::fclose(f);
    if (std::rename(tmp.c_str(), options.port_file.c_str()) != 0) {
      return Status::Internal("cannot rename '" + tmp + "'");
    }
  }

  g_loop = &loop;
  struct sigaction action = {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  // A loop failure (epoll_wait error) ends serving with that Status,
  // which main prints before exiting non-zero.
  Status loop_status = loop.Run();

  g_loop = nullptr;
  server.Shutdown();
  std::cout << "served " << server.requests_served() << " requests over "
            << server.connections_accepted() << " connections ("
            << server.connections_shed() << " shed, "
            << server.protocol_errors() << " protocol errors)\n";
  return loop_status;
}

}  // namespace
}  // namespace deepcrawl

int main(int argc, char** argv) {
  using namespace deepcrawl;
  Options options;
  FlagParser parser;
  RegisterWorkloadFlags(parser, &options.workload);
  RegisterFaultFlags(parser, &options.fault);
  parser.AddString("bind", &options.bind, "address to bind");
  parser.AddInt64("port", &options.port, 0, 65535,
                  "TCP port (0 = ephemeral; printed and written to "
                  "--port-file)");
  parser.AddString("port-file", &options.port_file,
                   "write the bound port here (atomically) once listening");
  RegisterServerFlags(parser, &options.server);
  parser.AddBool("counts", &options.counts,
                 "report total match counts (--no-counts to disable)");
  parser.AddInt64("max-connections", &options.max_connections, 1,
                  kFlagUint32Max,
                  "concurrent-connection cap; extra connections are shed "
                  "with a retryable GoAway");
  parser.AddInt64("shed-retry-after", &options.shed_retry_after, 0,
                  kFlagUint32Max,
                  "retry-after hint (rounds) on shed connections");
  parser.AddInt64("latency-us", &options.latency_us, 0, INT64_MAX,
                  "artificial per-response delay in microseconds");
  parser.AddBool("help", &options.help, "print this help");

  Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.ToString() << "\n\nflags:\n"
              << parser.HelpText();
    return 2;
  }
  if (options.help) {
    std::cout << "deepcrawl_serve — serve a (simulated) WebDB over TCP\n\n"
                 "flags:\n"
              << parser.HelpText();
    return 0;
  }
  Status status = Run(options);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
