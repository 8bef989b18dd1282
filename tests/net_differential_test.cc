// The wire determinism contract (DESIGN.md §13): a crawl fetching over
// TCP — pipelined across multiple connections, responses interleaving
// however the sockets please — emits BYTE-IDENTICAL output to the same
// crawl run in-process, for every selector (the optimal hierarchy
// descents included), fault profile, batch size, and both query forms
// (value and keyword box). Plus the restart story: a TCP crawl
// checkpointed at wave boundaries, interrupted, and resumed against a
// RESTARTED server process continues to the same byte-identical trace.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/optimal_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/adversarial_workload.h"
#include "src/datagen/movie_domain.h"
#include "src/net/event_loop.h"
#include "src/net/net_client.h"
#include "src/net/tcp_server.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/logging.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 29;

const char* const kPolicies[] = {"greedy", "mmmi"};
const char* const kProfiles[] = {"none", "flaky", "hostile"};
const uint32_t kBatches[] = {1, 16};

FaultProfile ProfileByName(const std::string& name) {
  FaultProfile profile;
  if (name == "flaky") {
    profile.unavailable_rate = 0.05;
    profile.timeout_rate = 0.03;
    profile.rate_limit_rate = 0.02;
  } else if (name == "hostile") {
    profile.unavailable_rate = 0.10;
    profile.timeout_rate = 0.05;
    profile.rate_limit_rate = 0.05;
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.02;
  }
  return profile;
}

const Table& MovieTarget() {
  static const Table* table = [] {
    MovieDomainPairConfig config;
    config.universe_size = 800;
    config.target_size = 220;
    config.seed = 7;
    StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
    DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
    return new Table(std::move(pair->target));
  }();
  return *table;
}

const AdversarialInstance& TrapInstance() {
  static const AdversarialInstance* instance = [] {
    AdversarialConfig config;
    config.family = AdversarialFamily::kGreedyTrap;
    config.leaf_buckets = 12;
    config.bucket_records = 4;
    config.decoy_buckets = 4;
    config.decoy_width = 8;
    config.seed = 3;
    StatusOr<AdversarialInstance> generated =
        GenerateAdversarialInstance(config);
    DEEPCRAWL_CHECK(generated.ok()) << generated.status().ToString();
    return new AdversarialInstance(std::move(generated).value());
  }();
  return *instance;
}

struct Env {
  const Table* target = nullptr;
  ServerOptions server_options;
  ValueId seed_value = kInvalidValueId;
};

Env MovieEnv() {
  Env env;
  env.target = &MovieTarget();
  for (ValueId v = 0; v < env.target->num_distinct_values(); ++v) {
    if (env.target->value_frequency(v) > 0) {
      env.seed_value = v;
      break;
    }
  }
  return env;
}

Env TrapEnv() {
  const AdversarialInstance& instance = TrapInstance();
  Env env;
  env.target = &instance.table;
  env.server_options.page_size = instance.result_limit;
  env.server_options.result_limit = instance.result_limit;
  env.seed_value = instance.root_value;
  return env;
}

std::unique_ptr<QuerySelector> MakeSelector(const std::string& policy,
                                            const LocalStore& store,
                                            const Env& env) {
  if (policy == "greedy") return std::make_unique<GreedyLinkSelector>(store);
  if (policy == "mmmi") return std::make_unique<MmmiSelector>(store);
  if (policy == "opt-rank" || policy == "opt-threshold") {
    StatusOr<AttributeId> rank_attr =
        env.target->schema().FindAttribute("range");
    DEEPCRAWL_CHECK(rank_attr.ok());
    StatusOr<QueryHierarchy> hierarchy = QueryHierarchy::FromCatalog(
        env.target->catalog(), rank_attr.value());
    DEEPCRAWL_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
    OptimalSelectorOptions options;
    options.mode = policy == "opt-rank" ? OptimalMode::kRank
                                        : OptimalMode::kThreshold;
    options.result_limit = env.server_options.result_limit;
    return std::make_unique<RankOptimalSelector>(
        store, std::move(hierarchy).value(), options);
  }
  ADD_FAILURE() << "unknown policy " << policy;
  return nullptr;
}

// Everything two equivalent crawls must agree on, trace CSV included.
struct RunOutput {
  CrawlResult result;
  std::string trace_csv;
  std::vector<RecordId> harvest_order;
};

RunOutput Capture(const CrawlResult& result, const LocalStore& store) {
  RunOutput out;
  out.result = result;
  std::ostringstream csv;
  Status written = WriteTraceCsv(result.trace, csv);
  DEEPCRAWL_CHECK(written.ok()) << written.ToString();
  out.trace_csv = csv.str();
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    out.harvest_order.push_back(store.OriginalRecordId(slot));
  }
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.result.stop_reason, b.result.stop_reason);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.queries, b.result.queries);
  EXPECT_EQ(a.result.records, b.result.records);
  EXPECT_EQ(a.result.resilience, b.result.resilience);
  EXPECT_EQ(a.trace_csv, b.trace_csv) << "trace CSV differs";
  EXPECT_EQ(a.harvest_order, b.harvest_order);
}

RunOutput RunInProcess(const Env& env, const std::string& policy,
                       const std::string& profile_name, uint32_t batch,
                       bool keyword = false) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    faulty->set_keyed_faults(true);
    server = &*faulty;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlOptions crawl_options;
  crawl_options.use_keyword_interface = keyword;
  EngineOptions engine_options;
  engine_options.batch = batch;
  CrawlEngine engine(*server, *selector, store, crawl_options,
                     engine_options, nullptr, &retry);
  engine.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store);
}

// The fault stack lives server-side, exactly as deepcrawl_serve builds
// it; the loop thread owns every backend call.
class TcpEnv {
 public:
  TcpEnv(const Env& env, const std::string& profile_name, uint16_t port = 0) {
    backend_.emplace(*env.target, env.server_options);
    QueryInterface* served = &*backend_;
    FaultProfile profile = ProfileByName(profile_name);
    if (!profile.IsAllZero()) {
      faulty_.emplace(*backend_, profile, kFaultSeed);
      faulty_->set_keyed_faults(true);
      served = &*faulty_;
    }
    Status init = loop_.Init();
    DEEPCRAWL_CHECK(init.ok()) << init.ToString();
    TcpServerOptions tcp_options;
    tcp_options.port = port;
    tcp_options.num_values = env.target->num_distinct_values();
    server_.emplace(loop_, *served, tcp_options);
    Status started = server_->Start();
    DEEPCRAWL_CHECK(started.ok()) << started.ToString();
    thread_ = std::thread([this] { loop_.Run(); });
  }
  ~TcpEnv() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      loop_.Stop();
      thread_.join();
      server_->Shutdown();
    }
  }

  uint16_t port() const { return server_->port(); }

 private:
  std::optional<WebDbServer> backend_;
  std::optional<FaultyServer> faulty_;
  EventLoop loop_;
  std::optional<WebDbTcpServer> server_;
  std::thread thread_;
};

std::unique_ptr<NetQueryClient> ConnectTo(uint16_t port,
                                          uint32_t connections) {
  NetClientOptions net_options;
  net_options.port = port;
  net_options.connections = connections;
  net_options.reconnect_window_ms = 5000;
  net_options.reconnect_backoff_ms = 5;
  StatusOr<std::unique_ptr<NetQueryClient>> client =
      NetQueryClient::Connect(net_options);
  DEEPCRAWL_CHECK(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

RunOutput RunOverTcp(const Env& env, const std::string& policy,
                     const std::string& profile_name, uint32_t batch,
                     uint32_t connections, bool keyword = false) {
  TcpEnv tcp(env, profile_name);
  std::unique_ptr<NetQueryClient> client = ConnectTo(tcp.port(), connections);
  NetFetchExecutor executor(*client);
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlOptions crawl_options;
  crawl_options.use_keyword_interface = keyword;
  EngineOptions engine_options;
  engine_options.batch = batch;
  engine_options.shared_executor = &executor;
  CrawlEngine engine(*client, *selector, store, crawl_options,
                     engine_options, nullptr, &retry);
  engine.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store);
}

TEST(NetDifferentialTest, TcpMatchesInProcessAcrossPoliciesAndFaults) {
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      for (uint32_t batch : kBatches) {
        RunOutput local = RunInProcess(env, policy, profile, batch);
        RunOutput wire = RunOverTcp(env, policy, profile, batch,
                                    /*connections=*/4);
        ExpectIdentical(local, wire,
                        std::string(policy) + "/" + profile + "/batch=" +
                            std::to_string(batch));
      }
    }
  }
}

// The keyword box (wire type kFetchPageKeywordOf) over a whole crawl:
// serial and batched, with and without faults.
TEST(NetDifferentialTest, KeywordInterfaceMatchesOverTcp) {
  const Env env = MovieEnv();
  for (const char* profile : {"none", "flaky"}) {
    for (uint32_t batch : {1u, 4u}) {
      RunOutput local = RunInProcess(env, "greedy", profile, batch,
                                     /*keyword=*/true);
      RunOutput wire = RunOverTcp(env, "greedy", profile, batch,
                                  /*connections=*/4, /*keyword=*/true);
      EXPECT_GT(wire.result.records, 0u);
      ExpectIdentical(local, wire,
                      std::string("keyword/greedy/") + profile +
                          "/batch=" + std::to_string(batch));
    }
  }
}

TEST(NetDifferentialTest, OptimalSelectorsMatchOverTcp) {
  const Env env = TrapEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const char* profile : {"none", "flaky"}) {
      for (uint32_t batch : kBatches) {
        RunOutput local = RunInProcess(env, policy, profile, batch);
        RunOutput wire = RunOverTcp(env, policy, profile, batch,
                                    /*connections=*/3);
        ExpectIdentical(local, wire,
                        std::string(policy) + "/" + profile + "/batch=" +
                            std::to_string(batch));
      }
    }
  }
}

TEST(NetDifferentialTest, ConnectionCountNeverChangesOutput) {
  const Env env = MovieEnv();
  RunOutput one = RunOverTcp(env, "greedy", "flaky", /*batch=*/16,
                             /*connections=*/1);
  for (uint32_t connections : {2u, 8u}) {
    RunOutput many = RunOverTcp(env, "greedy", "flaky", /*batch=*/16,
                                connections);
    ExpectIdentical(one, many,
                    "connections=" + std::to_string(connections));
  }
}

// A TCP crawl checkpointed every wave, stopped mid-crawl, then resumed
// by a FRESH engine + client against a RESTARTED server must finish
// with the uninterrupted crawl's exact trace. (Fault-free: a real
// server restart loses the keyed-fault attempt table, exactly like
// check.sh pass 8.)
TEST(NetDifferentialTest, CheckpointResumeAcrossServerRestart) {
  const Env env = MovieEnv();
  RunOutput reference = RunInProcess(env, "greedy", "none", /*batch=*/8);

  testing_util::ScopedTempDir dir;
  std::string path = dir.File("net_differential_resume.ckpt");
  uint16_t port = 0;
  {
    TcpEnv tcp(env, "none");
    port = tcp.port();
    std::unique_ptr<NetQueryClient> client = ConnectTo(port, 2);
    NetFetchExecutor executor(*client);
    LocalStore store;
    std::unique_ptr<QuerySelector> selector =
        MakeSelector("greedy", store, env);
    RetryPolicy retry((RetryPolicyConfig()));
    CrawlOptions crawl_options;
    crawl_options.max_rounds = reference.result.rounds / 2;
    EngineOptions engine_options;
    engine_options.batch = 8;
    engine_options.shared_executor = &executor;
    engine_options.checkpoint_every_waves = 1;
    engine_options.checkpoint_sink = [&path](const CrawlEngine& e) {
      return SaveCrawlCheckpoint(e, nullptr, path);
    };
    CrawlEngine engine(*client, *selector, store, crawl_options,
                       engine_options, nullptr, &retry);
    engine.AddSeed(env.seed_value);
    StatusOr<CrawlResult> interrupted = engine.Run();
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
    ASSERT_EQ(interrupted->stop_reason, StopReason::kRoundBudget)
        << "interruption landed after the crawl already finished";
  }  // server process "dies" here

  // Restart the server on the same port; resume from the checkpoint
  // with a brand-new client/engine, budget lifted.
  {
    TcpEnv tcp(env, "none", port);
    std::unique_ptr<NetQueryClient> client = ConnectTo(port, 2);
    NetFetchExecutor executor(*client);
    LocalStore store;
    std::unique_ptr<QuerySelector> selector =
        MakeSelector("greedy", store, env);
    RetryPolicy retry((RetryPolicyConfig()));
    EngineOptions engine_options;
    engine_options.batch = 8;
    engine_options.shared_executor = &executor;
    CrawlEngine engine(*client, *selector, store, CrawlOptions{},
                       engine_options, nullptr, &retry);
    Status loaded = LoadCrawlCheckpoint(path, engine, nullptr);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    engine.set_max_rounds(0);
    StatusOr<CrawlResult> result = engine.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    RunOutput resumed = Capture(*result, store);
    ExpectIdentical(reference, resumed, "resume-across-restart");
  }
}

}  // namespace
}  // namespace deepcrawl
