// The benchmark's workloads and the one function that runs a full crawl
// of them through the public API: LoadTargetTable -> WebDbServer (served
// in process or by a WebDbTcpServer) -> CrawlEngine::Run.

#ifndef CRAWLBENCH_WORKLOADS_H_
#define CRAWLBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "crawlbench/tracing.h"
#include "src/crawler/metrics.h"
#include "src/server/query_interface.h"
#include "src/util/status.h"

namespace crawlbench {

struct WorkloadSpec {
  const char* name = "";
  const char* why = "";
  // IMDB generator scale (1.0 = the paper's 400k records).
  double scale = 0.1;
  // Selector registry name (tools/selector_factory.h).
  const char* policy = "greedy";
  // Coverage fraction at which the selector is told of saturation.
  double saturation = 0.85;
  uint32_t batch = 1;
  // FaultyServer preset in front of the backend ("none" = no proxy).
  const char* fault_profile = "none";
  // Serve through a WebDbTcpServer on its own event-loop thread and
  // crawl with a NetFetchExecutor over `connections` connections.
  bool tcp = false;
  uint32_t connections = 1;
  // Checkpoint to a fresh temporary directory every N waves (0 = never).
  uint64_t checkpoint_every_waves = 0;
  // The harvest must equal ComputeReachability's reachable records.
  bool check_reachability = false;
};

std::span<const WorkloadSpec> Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// The same crawl served in process without checkpoints; its trace must
// be byte-identical to the TCP crawl's.
WorkloadSpec InProcessTwin(const WorkloadSpec& spec);

// Span logs of one traced crawl: the crawling thread's, and the serving
// event-loop thread's (TCP workloads only).
struct CrawlTracer {
  SpanLog main{0};
  SpanLog server{1};
};

// Counters read off the layer wrappers of a traced crawl.
struct LayerCounters {
  uint64_t event_calls = 0;
  int64_t event_ns = 0;
  uint64_t fetch_requests = 0;
  uint64_t records_returned = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t replay_records = 0;
  uint64_t replay_values = 0;
};

struct CrawlSample {
  double setup_s = 0.0;
  double crawl_s = 0.0;
  // Process CPU time (all threads) spent during Run().
  double crawl_cpu_s = 0.0;
  // Peak RSS of the process that ran this crawl, setup included; filled
  // by a caller that runs the crawl in a process of its own.
  double peak_rss_mb = 0.0;
  uint64_t target_records = 0;
  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t records = 0;
  uint64_t values_seen = 0;
  uint64_t rounds_to_90 = 0;
  uint64_t waves = 0;
  deepcrawl::ResilienceCounters resilience;
  deepcrawl::RttCounters rtt;
  uint64_t reconnects = 0;
  uint64_t requests_served = 0;
  uint64_t protocol_errors = 0;
  // FNV-1a 64 of the trace CSV (WriteTraceCsv).
  uint64_t trace_digest = 0;
  // Set when the crawl was asked to check reachability.
  std::optional<uint64_t> reachable_records;
  // Filled for a traced crawl only.
  LayerCounters layers;
};

// Builds the workload for `seed` (generator, fault and seed-value seed),
// crawls it to frontier exhaustion and tears everything down again: each
// call starts a fresh server and a fresh checkpoint directory under
// `scratch_dir`. `tracer` null runs the crawl without any wrapper.
deepcrawl::StatusOr<CrawlSample> RunOneCrawl(const WorkloadSpec& spec,
                                             uint64_t seed,
                                             const std::string& scratch_dir,
                                             CrawlTracer* tracer,
                                             bool check_reachability);

// Builds the workload's setup alone (datagen, index, server start and
// connect), tears it down again, and returns the setup time.
deepcrawl::StatusOr<double> MeasureSetup(const WorkloadSpec& spec,
                                         uint64_t seed);

uint64_t Fnv1a64(std::string_view bytes);

}  // namespace crawlbench

#endif  // CRAWLBENCH_WORKLOADS_H_
