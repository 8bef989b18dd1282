// Differential sweep for the adaptive meta-selector on a textual
// workload crawled through the keyword box: the bit-identity contracts
// that hold for every fixed policy (DESIGN.md §8/§10) must also hold
// across the adaptive selector's PHASE SWITCH — serial vs batch 1,
// fetch-order invariance, and checkpoint/resume from every wave
// boundary including the wave the switch happens in.
//
// The switch rule runs inside OnQueryCompleted, which the wave
// committer replays deterministically, so a checkpoint taken the wave
// before, of, or after a switch must restore the estimator and phase
// counters exactly and continue byte-identically.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/crawler/adaptive_selector.h"
#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/term_weight_selector.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/textual_workload.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/logging.h"
#include "tests/shuffled_fetch_executor.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 29;
constexpr uint64_t kShuffleSeed = 41;

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

const Table& TextualTarget() {
  static const Table* table = [] {
    TextualDbConfig config;
    config.num_documents = 260;
    config.vocabulary = 180;
    config.num_topics = 6;
    config.seed = 11;
    StatusOr<Table> generated = GenerateTextualTable(config);
    DEEPCRAWL_CHECK(generated.ok()) << generated.status().ToString();
    return new Table(std::move(generated).value());
  }();
  return *table;
}

ValueId TextualSeed() {
  const Table& table = TextualTarget();
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  return kInvalidValueId;
}

ServerOptions TextualServerOptions() {
  ServerOptions options;
  options.page_size = 5;
  // A result limit caps what popular terms yield (§5.4), which is what
  // drags the greedy phase's harvest rate down and triggers the switch.
  options.result_limit = 15;
  return options;
}

// Eager switch thresholds so a ~260-document crawl crosses at least one
// phase boundary mid-run.
AdaptiveOptions EagerSwitch() {
  AdaptiveOptions options;
  options.ewma_alpha = 0.4;
  options.switch_decay = 0.6;
  options.hr_floor = 0.4;
  options.min_phase_queries = 8;
  return options;
}

// The canonical chain under test. The raw pointer is for post-run
// introspection (phase switches); ownership moves to the caller.
std::unique_ptr<QuerySelector> MakeChain(const LocalStore& store,
                                         AdaptiveSelector** handle) {
  std::vector<std::unique_ptr<QuerySelector>> children;
  children.push_back(std::make_unique<GreedyLinkSelector>(store));
  children.push_back(std::make_unique<MmmiSelector>(store));
  children.push_back(std::make_unique<TermWeightSelector>(store));
  auto selector =
      std::make_unique<AdaptiveSelector>(std::move(children), EagerSwitch());
  if (handle != nullptr) *handle = selector.get();
  return selector;
}

CrawlOptions BaseOptions() {
  CrawlOptions options;
  options.use_keyword_interface = true;
  options.saturation_records = static_cast<uint64_t>(
      0.6 * static_cast<double>(TextualTarget().num_records()));
  return options;
}

struct RunOutput {
  CrawlResult result;
  std::vector<RecordId> harvest_order;
  uint64_t phase_switches = 0;
  size_t final_phase = 0;
};

std::string TraceCsvBytes(const CrawlTrace& trace) {
  std::ostringstream out;
  Status status = WriteTraceCsv(trace, out);
  DEEPCRAWL_CHECK(status.ok()) << status.ToString();
  return out.str();
}

struct InstrumentedRun {
  RunOutput output;
  std::vector<std::string> images;
};

// One engine run at `batch`, its waves served in rank order or, when
// `shuffled`, in a seeded shuffled order; `every` > 0 additionally
// encodes a checkpoint image at each wave boundary (0 = no
// instrumentation).
InstrumentedRun RunEngine(const std::string& profile_name,
                          CrawlOptions options, uint32_t batch,
                          bool shuffled, uint64_t every) {
  WebDbServer backend(TextualTarget(), TextualServerOptions());
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  LocalStore store;
  AdaptiveSelector* adaptive = nullptr;
  std::unique_ptr<QuerySelector> selector = MakeChain(store, &adaptive);
  RetryPolicy retry((RetryPolicyConfig()));
  InstrumentedRun run;
  const FaultyServer* faulty_ptr = faulty ? &*faulty : nullptr;
  ShuffledFetchExecutor shuffler(kShuffleSeed);
  EngineOptions engine_options;
  engine_options.batch = batch;
  if (shuffled) engine_options.shared_executor = &shuffler;
  engine_options.checkpoint_every_waves = every;
  if (every > 0) {
    engine_options.checkpoint_sink = [&run, faulty_ptr](
                                         const CrawlEngine& engine) {
      StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, faulty_ptr);
      if (!image.ok()) return image.status();
      run.images.push_back(std::move(*image));
      return Status::OK();
    };
  }
  CrawlEngine engine(*server, *selector, store, options, engine_options,
                     /*abort_policy=*/nullptr, &retry);
  engine.AddSeed(TextualSeed());
  StatusOr<CrawlResult> result = engine.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  run.output.result = *result;
  run.output.harvest_order.reserve(store.num_records());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    run.output.harvest_order.push_back(store.OriginalRecordId(slot));
  }
  run.output.phase_switches = adaptive->phase_switches();
  run.output.final_phase = adaptive->active_phase();
  return run;
}

RunOutput ResumeFromImage(const std::string& image,
                          const std::string& profile_name,
                          CrawlOptions options, uint32_t batch,
                          bool shuffled) {
  WebDbServer backend(TextualTarget(), TextualServerOptions());
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  LocalStore store;
  AdaptiveSelector* adaptive = nullptr;
  std::unique_ptr<QuerySelector> selector = MakeChain(store, &adaptive);
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
  RunOutput out;
  out.result = *result;
  out.harvest_order.reserve(store.num_records());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    out.harvest_order.push_back(store.OriginalRecordId(slot));
  }
  out.phase_switches = adaptive->phase_switches();
  out.final_phase = adaptive->active_phase();
  return out;
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
  EXPECT_EQ(a.final_phase, b.final_phase);
  EXPECT_EQ(TraceCsvBytes(a.result.trace), TraceCsvBytes(b.result.trace));
}

// The fixture workload must actually exercise a switch, or this file
// proves nothing about the switch boundary.
TEST(AdaptiveDifferentialTest, FixtureCrossesAPhaseBoundary) {
  InstrumentedRun run = RunEngine("none", BaseOptions(), /*batch=*/1,
                                  /*shuffled=*/false, /*every=*/0);
  EXPECT_GE(run.output.phase_switches, 1u)
      << "tune EagerSwitch()/TextualServerOptions(): the adaptive chain "
         "never left phase 0";
  EXPECT_GT(run.output.result.records, 0u);
}

// batch == 1 must be bit-identical to serial under every fault
// profile, through either executor, across the switch.
TEST(AdaptiveDifferentialTest, SerialEquivalenceAllProfiles) {
  for (const char* profile : kProfiles) {
    CrawlOptions options = BaseOptions();
    RunOutput serial = RunEngine(profile, options, /*batch=*/1,
                                 /*shuffled=*/false, 0)
                           .output;
    RunOutput shuffled =
        RunEngine(profile, options, /*batch=*/1, /*shuffled=*/true, 0).output;
    ExpectIdentical(serial, shuffled, std::string(profile) + "/shuffled");
  }
}

// At batch 4, the order a wave's fetches are served in is an execution
// detail only.
TEST(AdaptiveDifferentialTest, FetchOrderInvarianceBatch4) {
  for (const char* profile : kProfiles) {
    CrawlOptions options = BaseOptions();
    RunOutput reference = RunEngine(profile, options, /*batch=*/4,
                                    /*shuffled=*/false, 0)
                              .output;
    RunOutput shuffled =
        RunEngine(profile, options, /*batch=*/4, /*shuffled=*/true, 0).output;
    ExpectIdentical(reference, shuffled, profile);
  }
}

// Checkpoint at EVERY wave — necessarily including the wave containing
// the phase switch — and resume each image into the exact one-shot
// output, serial and batched, with and without faults.
TEST(AdaptiveDifferentialTest, CheckpointEveryWaveResumesIdentically) {
  struct Config {
    uint32_t batch;
    bool shuffled;
  };
  for (const char* profile : {"none", "flaky"}) {
    for (const Config& config : {Config{1, false}, Config{8, true}}) {
      CrawlOptions options = BaseOptions();
      SCOPED_TRACE(std::string(profile) + "/batch=" +
                   std::to_string(config.batch) +
                   (config.shuffled ? "/shuffled" : "/inline"));
      InstrumentedRun reference = RunEngine(profile, options, config.batch,
                                            config.shuffled, /*every=*/1);
      ASSERT_FALSE(reference.images.empty());
      ASSERT_GE(reference.output.phase_switches, 1u);
      for (size_t i = 0; i < reference.images.size(); ++i) {
        RunOutput resumed = ResumeFromImage(reference.images[i], profile,
                                            options, config.batch,
                                            config.shuffled);
        ExpectIdentical(reference.output, resumed,
                        "wave=" + std::to_string(i));
      }
    }
  }
}

// A mid-crawl checkpoint resumes identically under a different executor
// (the executor is wall-clock only, not part of the fingerprint).
TEST(AdaptiveDifferentialTest, CheckpointResumesAcrossExecutors) {
  CrawlOptions options = BaseOptions();
  InstrumentedRun reference = RunEngine("hostile", options, /*batch=*/4,
                                        /*shuffled=*/true, /*every=*/2);
  ASSERT_FALSE(reference.images.empty());
  const std::string& image = reference.images[reference.images.size() / 2];
  for (bool shuffled : {false, true}) {
    RunOutput resumed =
        ResumeFromImage(image, "hostile", options, /*batch=*/4, shuffled);
    ExpectIdentical(reference.output, resumed,
                    shuffled ? "resume-shuffled" : "resume-inline");
  }
}

}  // namespace
}  // namespace deepcrawl
