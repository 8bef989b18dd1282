#include "crawlbench/workloads.h"

#include <time.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/local_store.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/graph/reachability.h"
#include "src/net/event_loop.h"
#include "src/net/net_client.h"
#include "src/net/tcp_server.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/random.h"
#include "tools/selector_factory.h"
#include "tools/workload_setup.h"

namespace crawlbench {

using namespace deepcrawl;

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    {.name = "greedy-imdb",
     .why = "the paper's baseline crawl: engine commit, store ingest and "
            "the greedy selector; net, retry, checkpoint and MMMI bypassed",
     .scale = 0.3,
     .policy = "greedy",
     .check_reachability = true},
    {.name = "mmmi-marginal",
     .why = "the MMMI marginal phase (sec. 3.3): SelectNext rescoring "
            "dominates the crawl",
     .scale = 0.025,
     .policy = "mmmi",
     .saturation = 0.9,
     .check_reachability = true},
    {.name = "tcp-flaky",
     .why = "wire protocol, retry path and checkpoint writes next to ingest: "
            "a flaky server over TCP, 4 connections, batch 8",
     .scale = 0.1,
     .policy = "greedy",
     .batch = 8,
     .fault_profile = "flaky",
     .tcp = true,
     .connections = 4,
     .checkpoint_every_waves = 1000},
};

// A mkdtemp directory under `parent`, removed with everything in it.
class TempDir {
 public:
  static StatusOr<std::unique_ptr<TempDir>> Make(const std::string& parent) {
    std::error_code error;
    std::filesystem::create_directories(parent, error);
    std::string pattern = parent + "/ckpt-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      return Status::Internal("mkdtemp failed under '" + parent + "'");
    }
    return std::unique_ptr<TempDir>(new TempDir(std::move(pattern)));
  }
  ~TempDir() {
    std::error_code error;
    std::filesystem::remove_all(path_, error);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

// A WebDbTcpServer on an ephemeral loopback port, served by its own
// event-loop thread until Stop() or destruction.
class TcpServing {
 public:
  static StatusOr<std::unique_ptr<TcpServing>> Start(QueryInterface& backend,
                                                     uint32_t num_values) {
    std::unique_ptr<TcpServing> serving(new TcpServing());
    DEEPCRAWL_RETURN_IF_ERROR(serving->loop_.Init());
    TcpServerOptions options;
    options.num_values = num_values;
    serving->server_.emplace(serving->loop_, backend, options);
    DEEPCRAWL_RETURN_IF_ERROR(serving->server_->Start());
    serving->thread_ = std::thread([loop = &serving->loop_] { loop->Run(); });
    return serving;
  }
  ~TcpServing() { Stop(); }
  TcpServing(const TcpServing&) = delete;
  TcpServing& operator=(const TcpServing&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    loop_.Stop();
    thread_.join();
    server_->Shutdown();
  }

  const WebDbTcpServer& server() const { return *server_; }

 private:
  TcpServing() = default;

  EventLoop loop_;
  std::optional<WebDbTcpServer> server_;
  std::thread thread_;
};

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

// The seed-value choice of deepcrawl_crawl --seeds=1 --seed=<seed>.
ValueId PickSeedValue(const Table& target, uint64_t seed) {
  Pcg32 rng(seed);
  ValueId value =
      rng.NextBounded(static_cast<uint32_t>(target.num_distinct_values()));
  while (target.value_frequency(value) == 0) {
    value = static_cast<ValueId>((value + 1) % target.num_distinct_values());
  }
  return value;
}

// Everything a crawl talks to: the generated target, its server, and the
// transport in between. Teardown joins the serving thread before the
// backend it serves goes away (members destroy in reverse order).
struct Stack {
  // Datagen, index build and, for TCP workloads, server start plus
  // connect: the setup a crawl pays before its first query. `tracer`
  // non-null wraps the server in a TimedQueryInterface.
  static StatusOr<std::unique_ptr<Stack>> Build(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                CrawlTracer* tracer) {
    SpanLog* log = tracer != nullptr ? &tracer->main : nullptr;
    std::unique_ptr<Stack> stack(new Stack());
    WorkloadFlagOptions workload_flags;
    workload_flags.workload = "imdb";
    workload_flags.scale = spec.scale;
    workload_flags.gen_seed = static_cast<int64_t>(seed);
    std::optional<AdversarialGroundTruth> adversarial;
    StatusOr<Table> generated = [&] {
      ScopedSpan span(log, SpanName::kDatagen);
      return LoadTargetTable(workload_flags, adversarial);
    }();
    DEEPCRAWL_RETURN_IF_ERROR(generated.status());
    stack->target.emplace(std::move(generated).value());
    {
      ScopedSpan span(log, SpanName::kIndexBuild);
      // deepcrawl_crawl's default interface: page size 10, no result limit.
      stack->backend.emplace(*stack->target, ServerOptions());
    }

    FaultFlagOptions fault_flags;
    fault_flags.fault_profile = spec.fault_profile;
    fault_flags.fault_seed = static_cast<int64_t>(seed);
    DEEPCRAWL_ASSIGN_OR_RETURN(FaultProfile profile,
                               BuildFaultProfile(fault_flags));
    if (!profile.IsAllZero()) {
      stack->faulty.emplace(*stack->backend, profile, seed);
      // Keyed: fault decisions must not depend on arrival order across
      // connections, so the TCP crawl matches its in-process twin.
      stack->faulty->set_keyed_faults(true);
    }
    QueryInterface* served = &*stack->backend;
    if (stack->faulty.has_value()) served = &*stack->faulty;

    stack->crawl_server = served;
    stack->executor = &stack->inline_executor;
    if (spec.tcp) {
      ScopedSpan span(log, SpanName::kNetSetup);
      if (tracer != nullptr) {
        stack->timed_server.emplace(*served, tracer->server);
        served = &*stack->timed_server;
      }
      const auto num_values =
          static_cast<uint32_t>(stack->target->num_distinct_values());
      DEEPCRAWL_ASSIGN_OR_RETURN(stack->serving,
                                 TcpServing::Start(*served, num_values));
      NetClientOptions net_options;
      net_options.port = stack->serving->server().port();
      net_options.connections = spec.connections;
      DEEPCRAWL_ASSIGN_OR_RETURN(stack->client,
                                 NetQueryClient::Connect(net_options));
      stack->net_executor.emplace(*stack->client);
      stack->crawl_server = stack->client.get();
      stack->executor = &*stack->net_executor;
    } else if (tracer != nullptr) {
      stack->timed_server.emplace(*served, tracer->main);
      stack->crawl_server = &*stack->timed_server;
    }
    return stack;
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::optional<Table> target;
  std::optional<WebDbServer> backend;
  std::optional<FaultyServer> faulty;
  std::optional<TimedQueryInterface> timed_server;
  std::unique_ptr<TcpServing> serving;
  std::unique_ptr<NetQueryClient> client;
  std::optional<NetFetchExecutor> net_executor;
  InlineFetchExecutor inline_executor;
  // What the engine crawls through: the server (or the network client)
  // and the executor that fetches each wave.
  QueryInterface* crawl_server = nullptr;
  FetchExecutor* executor = nullptr;

 private:
  Stack() = default;
};

}  // namespace

std::span<const WorkloadSpec> Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadSpec InProcessTwin(const WorkloadSpec& spec) {
  WorkloadSpec twin = spec;
  twin.tcp = false;
  twin.checkpoint_every_waves = 0;
  return twin;
}

StatusOr<double> MeasureSetup(const WorkloadSpec& spec, uint64_t seed) {
  const int64_t start = NowNs();
  DEEPCRAWL_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                             Stack::Build(spec, seed, nullptr));
  return SecondsSince(start);
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

StatusOr<CrawlSample> RunOneCrawl(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& scratch_dir,
                                  CrawlTracer* tracer,
                                  bool check_reachability) {
  SpanLog* log = tracer != nullptr ? &tracer->main : nullptr;
  CrawlSample sample;
  const int64_t setup_start = NowNs();
  DEEPCRAWL_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                             Stack::Build(spec, seed, tracer));
  sample.setup_s = SecondsSince(setup_start);
  const Table& target = *stack->target;
  const ServerOptions& server_options = stack->backend->options();
  FetchExecutor* executor = stack->executor;

  LocalStore store;
  SelectorContext selector_context;
  selector_context.store = &store;
  selector_context.seed = seed;
  selector_context.page_size = server_options.page_size;
  selector_context.result_limit = server_options.result_limit;
  selector_context.target = &target;
  selector_context.oracle_index = &stack->backend->index();
  DEEPCRAWL_ASSIGN_OR_RETURN(
      std::unique_ptr<QuerySelector> selector,
      MakeSelectorByName(spec.policy, selector_context));

  std::optional<TimedSelector> timed_selector;
  std::optional<TimedExecutor> timed_executor;
  QuerySelector* crawl_selector = selector.get();
  if (tracer != nullptr) {
    timed_selector.emplace(*selector, tracer->main);
    timed_executor.emplace(*executor, tracer->main);
    crawl_selector = &*timed_selector;
    executor = &*timed_executor;
  }

  CrawlOptions crawl_options;
  crawl_options.saturation_records = static_cast<uint64_t>(
      spec.saturation * static_cast<double>(target.num_records()));

  RetryPolicyConfig retry_config;  // deepcrawl_crawl's defaults
  retry_config.seed = seed;
  RetryPolicy retry_policy(retry_config);
  const bool use_retry = stack->faulty.has_value() || spec.tcp;

  EngineOptions engine_options;
  engine_options.batch = spec.batch;
  engine_options.shared_executor = executor;
  std::unique_ptr<TempDir> checkpoint_dir;
  std::optional<TimedCheckpointSink> timed_sink;
  if (spec.checkpoint_every_waves > 0) {
    DEEPCRAWL_ASSIGN_OR_RETURN(checkpoint_dir, TempDir::Make(scratch_dir));
    std::string path = checkpoint_dir->path() + "/crawl.ckpt";
    // Over TCP the fault proxy's state lives with the server.
    const FaultyServer* local_faults =
        spec.tcp || !stack->faulty.has_value() ? nullptr : &*stack->faulty;
    TimedCheckpointSink::Sink sink = [local_faults,
                                      path](const CrawlEngine& engine) {
      return SaveCrawlCheckpoint(engine, local_faults, path);
    };
    engine_options.checkpoint_every_waves = spec.checkpoint_every_waves;
    if (tracer != nullptr) {
      timed_sink.emplace(std::move(sink), tracer->main, path);
      engine_options.checkpoint_sink = [&timed_sink](const CrawlEngine& e) {
        return (*timed_sink)(e);
      };
    } else {
      engine_options.checkpoint_sink = std::move(sink);
    }
  }

  CrawlEngine engine(*stack->crawl_server, *crawl_selector, store,
                     crawl_options, engine_options, /*abort_policy=*/nullptr,
                     use_retry ? &retry_policy : nullptr);
  const ValueId seed_value = PickSeedValue(target, seed);
  engine.AddSeed(seed_value);

  const int64_t crawl_start = NowNs();
  const double cpu_start = ProcessCpuSeconds();
  StatusOr<CrawlResult> run = [&] {
    ScopedSpan span(log, SpanName::kCrawl);
    return engine.Run();
  }();
  sample.crawl_s = SecondsSince(crawl_start);
  sample.crawl_cpu_s = ProcessCpuSeconds() - cpu_start;
  DEEPCRAWL_RETURN_IF_ERROR(run.status());
  const CrawlResult& result = run.value();

  // Quiesce the server before reading its counters.
  if (stack->serving) {
    stack->serving->Stop();
    sample.requests_served = stack->serving->server().requests_served();
    sample.protocol_errors = stack->serving->server().protocol_errors();
  }
  if (stack->client) sample.reconnects = stack->client->reconnects();

  sample.target_records = target.num_records();
  sample.rounds = result.rounds;
  sample.queries = result.queries;
  sample.records = result.records;
  sample.values_seen = store.num_values_seen();
  sample.waves = engine.waves_completed();
  sample.resilience = result.resilience;
  sample.rtt = result.rtt;
  uint64_t ninety = (sample.target_records * 9 + 9) / 10;
  std::optional<uint64_t> rounds_to_90 = result.trace.RoundsToRecords(ninety);
  if (!rounds_to_90.has_value()) {
    return Status::Internal("crawl never reached 90% of the target records");
  }
  sample.rounds_to_90 = *rounds_to_90;

  std::ostringstream csv;
  DEEPCRAWL_RETURN_IF_ERROR(WriteTraceCsv(result.trace, csv));
  sample.trace_digest = Fnv1a64(csv.str());

  if (check_reachability) {
    const ValueId seeds[] = {seed_value};
    sample.reachable_records =
        ComputeReachability(target, stack->backend->index(), seeds)
            .reachable_records;
  }

  if (tracer != nullptr) {
    // LocalStore is not virtual: time its ingest by replaying the harvest,
    // in slot order, into a fresh store.
    LocalStore replay;
    {
      ScopedSpan span(log, SpanName::kStoreReplay);
      for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
        replay.AddRecord(store.OriginalRecordId(slot),
                         store.RecordValues(slot));
      }
    }
    LayerCounters& layers = sample.layers;
    layers.event_calls = timed_selector->event_calls();
    layers.event_ns = timed_selector->event_ns();
    layers.fetch_requests = timed_executor->requests();
    layers.records_returned = stack->timed_server->records_returned();
    layers.checkpoint_bytes = timed_sink.has_value() ? timed_sink->bytes() : 0;
    layers.replay_records = replay.num_records();
    layers.replay_values = replay.num_values_seen();
  }
  return sample;
}

}  // namespace crawlbench
