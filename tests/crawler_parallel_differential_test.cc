// Differential test suite for the batched crawl engine: batch-1
// equivalence to the serial crawl for every selection policy and fault
// profile, and fetch-order invariance at every batch size.
//
// The determinism contract under test (DESIGN.md §8):
//   * a CrawlEngine with batch == 1 is BIT-IDENTICAL to the serial
//     configuration (default EngineOptions, inline fetches) — same
//     trace points, resilience counters, stop reason, meters, and
//     harvest order;
//   * at any batch size, the output is a pure function of the seed and
//     the batch: the order a wave's fetches are served in (rank order
//     inline, shuffled by tests/shuffled_fetch_executor.h as a
//     pipelined transport may) never changes anything.
// Fault runs need no setup for this: every FaultyServer decision is
// keyed by (query, page, attempt), a function of logical fetch identity
// rather than arrival order.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/crawler/abort_policy.h"
#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/optimal_selector.h"
#include "src/crawler/oracle_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/adversarial_workload.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "tests/shuffled_fetch_executor.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 29;
constexpr uint64_t kSelectorSeed = 5;
constexpr uint64_t kShuffleSeed = 41;

const char* const kPolicies[] = {"bfs",    "dfs",  "random",
                                 "greedy", "mmmi", "oracle"};
const char* const kProfiles[] = {"none", "flaky", "lossy", "hostile"};

FaultProfile ProfileByName(const std::string& name) {
  FaultProfile profile;
  if (name == "flaky") {
    profile.unavailable_rate = 0.05;
    profile.timeout_rate = 0.03;
    profile.rate_limit_rate = 0.02;
  } else if (name == "lossy") {
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.05;
  } else if (name == "hostile") {
    profile.unavailable_rate = 0.10;
    profile.timeout_rate = 0.05;
    profile.rate_limit_rate = 0.05;
    profile.truncate_rate = 0.05;
    profile.duplicate_rate = 0.02;
  }
  return profile;
}

ValueId FirstQueriableSeed(const Table& table) {
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  ADD_FAILURE() << "table has no queriable value";
  return kInvalidValueId;
}

const Table& DifferentialTarget() {
  static const Table* table = [] {
    MovieDomainPairConfig config;
    config.universe_size = 1500;
    config.target_size = 400;
    config.seed = 7;
    StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
    DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
    return new Table(std::move(pair->target));
  }();
  return *table;
}

// One crawl environment: target table, server knobs, and the canonical
// seed value. The movie env is the original differential workload; the
// adversarial env points the same sweeps at a greedy-trap instance so
// the optimal selectors run their native hierarchy descent.
struct Env {
  const Table* target = nullptr;
  // Ground truth for the oracle policy (movie env only).
  const InvertedIndex* truth = nullptr;
  ServerOptions server_options;
  ValueId seed_value = kInvalidValueId;
};

Env MovieEnv() {
  static const InvertedIndex* truth = new InvertedIndex(DifferentialTarget());
  Env env;
  env.target = &DifferentialTarget();
  env.truth = truth;
  env.seed_value = FirstQueriableSeed(*env.target);
  return env;
}

const AdversarialInstance& DifferentialTrap() {
  static const AdversarialInstance* instance = [] {
    AdversarialConfig config;
    config.family = AdversarialFamily::kGreedyTrap;
    config.leaf_buckets = 12;  // rounds to B = 16 with the decoys
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

Env AdversarialEnv() {
  const AdversarialInstance& instance = DifferentialTrap();
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
  if (policy == "bfs") return std::make_unique<BfsSelector>();
  if (policy == "dfs") return std::make_unique<DfsSelector>();
  if (policy == "random") {
    return std::make_unique<RandomSelector>(kSelectorSeed);
  }
  if (policy == "greedy") return std::make_unique<GreedyLinkSelector>(store);
  if (policy == "mmmi") return std::make_unique<MmmiSelector>(store);
  if (policy == "oracle") {
    DEEPCRAWL_CHECK(env.truth != nullptr) << "env has no ground truth";
    return std::make_unique<OracleSelector>(
        store, *env.truth, env.server_options.page_size,
        env.server_options.result_limit);
  }
  if (policy == "opt-rank" || policy == "opt-threshold") {
    StatusOr<AttributeId> rank_attr =
        env.target->schema().FindAttribute("range");
    DEEPCRAWL_CHECK(rank_attr.ok()) << "env target has no rank attribute";
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

CrawlOptions BaseOptions(const Table& target) {
  CrawlOptions options;
  // Exercise the MMMI switch-over; harmless for the other selectors.
  options.saturation_records =
      static_cast<uint64_t>(0.6 * static_cast<double>(target.num_records()));
  return options;
}

// Everything two equivalent crawls must agree on.
struct RunOutput {
  CrawlResult result;
  std::vector<RecordId> harvest_order;  // store slots in commit order
};

RunOutput Capture(const CrawlResult& result, const LocalStore& store) {
  RunOutput out;
  out.result = result;
  out.harvest_order.reserve(store.num_records());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    out.harvest_order.push_back(store.OriginalRecordId(slot));
  }
  return out;
}

// The serial configuration: default EngineOptions (batch 1, inline
// fetches).
RunOutput RunSerial(const Env& env, const std::string& policy,
                    const std::string& profile_name, CrawlOptions options) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(*server, *selector, store, options, EngineOptions{},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store);
}

// The batched engine at `batch`, its waves served in rank order, or in
// a seeded shuffled order when `shuffled`.
RunOutput RunBatched(const Env& env, const std::string& policy,
                     const std::string& profile_name, CrawlOptions options,
                     uint32_t batch, bool shuffled = false) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  ShuffledFetchExecutor shuffler(kShuffleSeed);
  CrawlEngine crawler(
      *server, *selector, store, options,
      EngineOptions{.batch = batch,
                    .shared_executor = shuffled ? &shuffler : nullptr},
      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store);
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.result.stop_reason, b.result.stop_reason);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.result.queries, b.result.queries);
  EXPECT_EQ(a.result.records, b.result.records);
  EXPECT_EQ(a.result.trace.points(), b.result.trace.points());
  EXPECT_EQ(a.result.resilience, b.result.resilience);
  EXPECT_EQ(a.harvest_order, b.harvest_order);
}

// batch == 1: the batched engine must reproduce the serial engine
// bit-for-bit, for every selector and fault profile, through either
// executor.
TEST(ParallelCrawlerDifferentialTest, SerialEquivalenceAllPolicies) {
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      CrawlOptions options = BaseOptions(DifferentialTarget());
      RunOutput serial = RunSerial(env, policy, profile, options);
      for (bool shuffled : {false, true}) {
        RunOutput batched = RunBatched(env, policy, profile, options,
                                       /*batch=*/1, shuffled);
        ExpectIdentical(serial, batched,
                        std::string(policy) + "/" + profile +
                            (shuffled ? "/shuffled" : "/inline"));
      }
    }
  }
}

// batch == 4: the order a wave's fetches are served in is an execution
// detail — rank order and a shuffled order must give identical output.
TEST(ParallelCrawlerDifferentialTest, FetchOrderInvarianceBatch4) {
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      CrawlOptions options = BaseOptions(DifferentialTarget());
      ExpectIdentical(
          RunBatched(env, policy, profile, options, /*batch=*/4),
          RunBatched(env, policy, profile, options, /*batch=*/4,
                     /*shuffled=*/true),
          std::string(policy) + "/" + profile);
    }
  }
}

// batch > 1 changes the crawl ORDER even for BFS (a wave interleaves
// its slots' discoveries page by page, where serial appends one full
// drain at a time), but never the outcome of an exhaustive crawl: the
// final coverage, round count, and query count all match serial.
TEST(ParallelCrawlerDifferentialTest, BfsBatchedReachesSerialCoverage) {
  const Env env = MovieEnv();
  CrawlOptions options = BaseOptions(DifferentialTarget());
  RunOutput serial = RunSerial(env, "bfs", "none", options);
  RunOutput batched = RunBatched(env, "bfs", "none", options, /*batch=*/4);
  EXPECT_EQ(batched.result.stop_reason, StopReason::kFrontierExhausted);
  EXPECT_EQ(batched.result.records, serial.result.records);
  // BFS drains every discovered value completely, so an exhaustive
  // crawl issues the same queries and fetches the same pages in both
  // engines — only their order differs.
  EXPECT_EQ(batched.result.rounds, serial.result.rounds);
  EXPECT_EQ(batched.result.queries, serial.result.queries);
  std::set<RecordId> serial_ids(serial.harvest_order.begin(),
                                serial.harvest_order.end());
  std::set<RecordId> batched_ids(batched.harvest_order.begin(),
                                 batched.harvest_order.end());
  EXPECT_EQ(batched_ids, serial_ids);
}

// Keyword-interface crawls flow through FetchPageKeywordOf; both
// equivalences must hold there too.
TEST(ParallelCrawlerDifferentialTest, KeywordModeEquivalence) {
  const Env env = MovieEnv();
  CrawlOptions options = BaseOptions(DifferentialTarget());
  options.use_keyword_interface = true;
  RunOutput serial = RunSerial(env, "greedy", "flaky", options);
  ExpectIdentical(serial,
                  RunBatched(env, "greedy", "flaky", options, /*batch=*/1),
                  "keyword/greedy/flaky/batch=1");
  ExpectIdentical(RunBatched(env, "greedy", "flaky", options, /*batch=*/4),
                  RunBatched(env, "greedy", "flaky", options, /*batch=*/4,
                             /*shuffled=*/true),
                  "keyword/greedy/flaky/batch=4");
}

// Round-budget semantics: a target and a budget must stop both
// configurations at the same point with the same stop reason.
TEST(ParallelCrawlerDifferentialTest, BudgetAndTargetStops) {
  const Env env = MovieEnv();
  for (uint64_t max_rounds : {25u, 120u}) {
    CrawlOptions options = BaseOptions(DifferentialTarget());
    options.max_rounds = max_rounds;
    options.target_records = 150;
    RunOutput serial = RunSerial(env, "greedy", "hostile", options);
    RunOutput batched =
        RunBatched(env, "greedy", "hostile", options, /*batch=*/1);
    ExpectIdentical(serial, batched,
                    "budget=" + std::to_string(max_rounds));
  }
}

// Sliced execution: running the batched engine in many small budget
// increments must land exactly where one unbounded Run() lands —
// parked slots resume with no page re-fetched and no record
// double-counted, at any batch size.
TEST(ParallelCrawlerDifferentialTest, SlicedRunsResumeExactly) {
  const Env env = MovieEnv();
  const Table& target = DifferentialTarget();
  CrawlOptions options = BaseOptions(target);

  RunOutput one_shot =
      RunBatched(env, "greedy", "flaky", options, /*batch=*/3);

  WebDbServer backend(target, ServerOptions());
  FaultProfile profile = ProfileByName("flaky");
  FaultyServer faulty(backend, profile, kFaultSeed);
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector("greedy", store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(faulty, *selector, store, options,
                      EngineOptions{.batch = 3}, nullptr, &retry);
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> sliced = Status::Internal("never ran");
  for (uint64_t budget = 17;; budget += 17) {
    crawler.set_max_rounds(budget);
    sliced = crawler.Run();
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    if (sliced->stop_reason != StopReason::kRoundBudget) break;
  }
  RunOutput sliced_out = Capture(*sliced, store);
  // The one-shot run never sees a budget, so compare everything except
  // the stop bookkeeping path: trace, meters, harvest, resilience.
  EXPECT_EQ(one_shot.result.rounds, sliced_out.result.rounds);
  EXPECT_EQ(one_shot.result.queries, sliced_out.result.queries);
  EXPECT_EQ(one_shot.result.records, sliced_out.result.records);
  EXPECT_EQ(one_shot.result.trace.points(), sliced_out.result.trace.points());
  EXPECT_EQ(one_shot.result.resilience, sliced_out.result.resilience);
  EXPECT_EQ(one_shot.harvest_order, sliced_out.harvest_order);
}

// --- checkpoint/resume bit-identity sweep ----------------------------
//
// The checkpoint contract (DESIGN.md §10): interrupting a crawl at ANY
// wave boundary, restoring the checkpoint into a freshly built stack,
// and running to completion must emit byte-identical output — trace CSV
// bytes, meters, resilience counters, harvest order —
// versus the uninterrupted run. Corrupt-input rejection lives in
// tests/crawler_checkpoint_test.cc; this sweep owns bit-identity.

std::string TraceCsvBytes(const CrawlTrace& trace) {
  std::ostringstream out;
  Status status = WriteTraceCsv(trace, out);
  DEEPCRAWL_CHECK(status.ok()) << status.ToString();
  return out.str();
}

// Runs a one-shot crawl that also encodes a checkpoint image at every
// `every`-th wave boundary.
struct InstrumentedRun {
  RunOutput output;
  std::vector<std::string> images;
};

InstrumentedRun RunWithCheckpoints(const Env& env, const std::string& policy,
                                   const std::string& profile_name,
                                   CrawlOptions options, uint32_t batch,
                                   bool shuffled, uint64_t every) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  InstrumentedRun run;
  const FaultyServer* faulty_ptr = faulty ? &*faulty : nullptr;
  ShuffledFetchExecutor shuffler(kShuffleSeed);
  EngineOptions engine_options;
  engine_options.batch = batch;
  if (shuffled) engine_options.shared_executor = &shuffler;
  engine_options.checkpoint_every_waves = every;
  engine_options.checkpoint_sink = [&run,
                                    faulty_ptr](const CrawlEngine& engine) {
    StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, faulty_ptr);
    if (!image.ok()) return image.status();
    run.images.push_back(std::move(*image));
    return Status::OK();
  };
  CrawlEngine engine(*server, *selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, &retry);
  engine.AddSeed(env.seed_value);
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  run.output = Capture(*result, store);
  return run;
}

// Restores `image` into a freshly built stack and runs to completion.
RunOutput ResumeFromImage(const Env& env, const std::string& image,
                          const std::string& policy,
                          const std::string& profile_name,
                          CrawlOptions options, uint32_t batch,
                          bool shuffled) {
  WebDbServer backend(*env.target, env.server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  LocalStore store;
  std::unique_ptr<QuerySelector> selector = MakeSelector(policy, store, env);
  RetryPolicy retry((RetryPolicyConfig()));
  ShuffledFetchExecutor shuffler(kShuffleSeed);
  EngineOptions engine_options;
  engine_options.batch = batch;
  if (shuffled) engine_options.shared_executor = &shuffler;
  CrawlEngine engine(*server, *selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, &retry);
  Status loaded =
      DecodeCrawlCheckpoint(image, engine, faulty ? &*faulty : nullptr);
  DEEPCRAWL_CHECK(loaded.ok()) << loaded.ToString();
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return Capture(*result, store);
}

void ExpectIdenticalWithCsv(const RunOutput& a, const RunOutput& b,
                            const std::string& label) {
  ExpectIdentical(a, b, label);
  SCOPED_TRACE(label);
  EXPECT_EQ(TraceCsvBytes(a.result.trace), TraceCsvBytes(b.result.trace));
}

// Interrupt-at-EVERY-wave sweep for one serial and one batched
// configuration: each checkpoint a run ever writes must resume into the
// exact one-shot output.
struct Config {
  uint32_t batch;
  bool shuffled;
};

std::string ConfigLabel(const Config& config) {
  return "batch=" + std::to_string(config.batch) +
         (config.shuffled ? "/shuffled" : "/inline");
}

TEST(ParallelCrawlerDifferentialTest, CheckpointEveryWaveResumesIdentically) {
  const Env env = MovieEnv();
  for (const Config& config : {Config{1, false}, Config{8, true}}) {
    CrawlOptions options = BaseOptions(DifferentialTarget());
    InstrumentedRun reference =
        RunWithCheckpoints(env, "greedy", "flaky", options, config.batch,
                           config.shuffled, /*every=*/1);
    // The checkpoint sink is pure instrumentation: the instrumented run
    // matches a plain one-shot run.
    RunOutput plain = config.batch == 1
                          ? RunSerial(env, "greedy", "flaky", options)
                          : RunBatched(env, "greedy", "flaky", options,
                                       config.batch, config.shuffled);
    ExpectIdenticalWithCsv(plain, reference.output, "instrumented-vs-plain");
    ASSERT_FALSE(reference.images.empty());
    for (size_t i = 0; i < reference.images.size(); ++i) {
      RunOutput resumed =
          ResumeFromImage(env, reference.images[i], "greedy", "flaky",
                          options, config.batch, config.shuffled);
      ExpectIdenticalWithCsv(
          reference.output, resumed,
          ConfigLabel(config) + "/wave=" + std::to_string(i));
    }
  }
}

// Full matrix: every selection policy x fault profile x {serial,
// shuffled batch-8}, resuming from an early, a middle, and a late
// checkpoint of each run.
TEST(ParallelCrawlerDifferentialTest, CheckpointMatrixResumesIdentically) {
  const Env env = MovieEnv();
  for (const char* policy : kPolicies) {
    for (const char* profile : kProfiles) {
      for (const Config& config : {Config{1, false}, Config{8, true}}) {
        CrawlOptions options = BaseOptions(DifferentialTarget());
        SCOPED_TRACE(std::string(policy) + "/" + profile + "/" +
                     ConfigLabel(config));
        // every=1 (not a sampled stride): some fault profiles collapse a
        // crawl after a single wave (a truncated seed page kills the BFS
        // frontier), and the run must still produce a checkpoint.
        InstrumentedRun reference = RunWithCheckpoints(
            env, policy, profile, options, config.batch, config.shuffled,
            /*every=*/1);
        ASSERT_FALSE(reference.images.empty());
        size_t last = reference.images.size() - 1;
        std::set<size_t> picks = {0, last / 2, last};
        for (size_t i : picks) {
          RunOutput resumed =
              ResumeFromImage(env, reference.images[i], policy, profile,
                              options, config.batch, config.shuffled);
          ExpectIdenticalWithCsv(reference.output, resumed,
                                 "image=" + std::to_string(i));
        }
      }
    }
  }
}

// A checkpoint taken mid-crawl may also be resumed under a DIFFERENT
// executor (the executor is wall-clock only and deliberately not part
// of the checkpoint fingerprint, so a TCP crawl's checkpoint resumes
// in-process); the output must not change.
TEST(ParallelCrawlerDifferentialTest, CheckpointResumesAcrossExecutors) {
  const Env env = MovieEnv();
  CrawlOptions options = BaseOptions(DifferentialTarget());
  InstrumentedRun reference = RunWithCheckpoints(
      env, "mmmi", "hostile", options, /*batch=*/4, /*shuffled=*/true,
      /*every=*/5);
  ASSERT_FALSE(reference.images.empty());
  const std::string& image =
      reference.images[reference.images.size() / 2];
  for (bool shuffled : {false, true}) {
    RunOutput resumed = ResumeFromImage(env, image, "mmmi", "hostile",
                                        options, /*batch=*/4, shuffled);
    ExpectIdenticalWithCsv(reference.output, resumed,
                           shuffled ? "resume-shuffled" : "resume-inline");
  }
}

// Abort policies are consulted at the same points whatever order a
// wave's fetches are served in.
TEST(ParallelCrawlerDifferentialTest, AbortPolicyEquivalence) {
  const Table& target = DifferentialTarget();
  CrawlOptions options = BaseOptions(target);

  auto run = [&](bool shuffled) {
    WebDbServer backend(target, ServerOptions());
    LocalStore store;
    std::unique_ptr<QuerySelector> selector =
        MakeSelector("greedy", store, MovieEnv());
    CountBasedAbort abort_policy(/*min_harvest_rate=*/2.0);
    ShuffledFetchExecutor shuffler(kShuffleSeed);
    CrawlEngine crawler(
        backend, *selector, store, options,
        EngineOptions{.batch = 4,
                      .shared_executor = shuffled ? &shuffler : nullptr},
        &abort_policy, nullptr);
    crawler.AddSeed(FirstQueriableSeed(target));
    StatusOr<CrawlResult> result = crawler.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return Capture(*result, store);
  };

  ExpectIdentical(run(false), run(true), "count-abort");
}

// --- optimal-selector determinism on the adversarial env -------------
//
// The Sheng et al. selectors keep extra mutable state (descent queue,
// per-node status/count arrays); the same contracts that hold for the
// classic selectors must hold for them: batch == 1 is bit-identical to
// serial, fetch order never matters, and every checkpoint resumes into
// the exact one-shot output by replaying its fetch log.

TEST(ParallelCrawlerDifferentialTest, OptimalSerialEquivalenceAllProfiles) {
  const Env env = AdversarialEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const char* profile : kProfiles) {
      CrawlOptions options;
      RunOutput serial = RunSerial(env, policy, profile, options);
      for (bool shuffled : {false, true}) {
        RunOutput batched = RunBatched(env, policy, profile, options,
                                       /*batch=*/1, shuffled);
        ExpectIdentical(serial, batched,
                        std::string(policy) + "/" + profile +
                            (shuffled ? "/shuffled" : "/inline"));
      }
    }
  }
}

TEST(ParallelCrawlerDifferentialTest, OptimalFetchOrderInvarianceBatch4) {
  const Env env = AdversarialEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const char* profile : kProfiles) {
      CrawlOptions options;
      ExpectIdentical(
          RunBatched(env, policy, profile, options, /*batch=*/4),
          RunBatched(env, policy, profile, options, /*batch=*/4,
                     /*shuffled=*/true),
          std::string(policy) + "/" + profile);
    }
  }
}

TEST(ParallelCrawlerDifferentialTest,
     OptimalCheckpointEveryWaveResumesIdentically) {
  const Env env = AdversarialEnv();
  for (const char* policy : {"opt-rank", "opt-threshold"}) {
    for (const Config& config : {Config{1, false}, Config{4, true}}) {
      CrawlOptions options;
      SCOPED_TRACE(std::string(policy) + "/" + ConfigLabel(config));
      InstrumentedRun reference =
          RunWithCheckpoints(env, policy, "flaky", options, config.batch,
                             config.shuffled, /*every=*/1);
      ASSERT_FALSE(reference.images.empty());
      size_t last = reference.images.size() - 1;
      std::set<size_t> picks = {0, last / 2, last};
      for (size_t i : picks) {
        RunOutput resumed =
            ResumeFromImage(env, reference.images[i], policy, "flaky",
                            options, config.batch, config.shuffled);
        ExpectIdenticalWithCsv(reference.output, resumed,
                               "image=" + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace deepcrawl
