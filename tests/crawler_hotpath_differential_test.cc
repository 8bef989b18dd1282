// Differential suite for the hot-path overhaul: the optimized data
// structures must be observationally INVISIBLE.
//
// Three optimizations are cross-checked against reference
// implementations:
//
//   * LocalStore: CSR postings, per-value degree counters fed by the
//     tail scans and the hub–hub edge hash, vs the per-value containers of
//     tests/reference_local_store.h. Every crawl runs its selector
//     behind StoreOracleSelector, which replays each harvested record
//     into the oracle and compares the record's values after every add
//     — not only the final trace. After the crawl, the store's
//     observation counts (duplicates included) must match the oracle's,
//     fed from every page the engine received;
//   * Greedy Link selection: GreedyLinkSelector's degree heap vs the
//     pending-set rescan of tests/reference_greedy_selector.h;
//   * MMMI scoring: MmmiSelector's incrementally-maintained
//     co-occurrence counters and ordered ranking structure vs the full
//     postings rescan of tests/reference_mmmi_selector.h.
//
// For every fault profile, serial and batched (--batch 8),
// a GreedyLinkSelector crawl and an MmmiSelector crawl (every
// MmmiRanking) must each produce a byte-identical CrawlTrace (CSV
// serialization compared as strings) and identical meters/harvest
// order/resilience counters to the matching oracle crawl. Extra rows
// drain queries incompletely on purpose (a result limit, a §3.4 abort):
// besides abandonment under faults, those are the crawls in which an
// issued query's local frequency still moves after it completed. Two
// more greedy rows run it as the second child of an adaptive chain
// (values taken by the first child leave the heap behind) and resume it
// from a mid-crawl checkpoint (the heap is rebuilt, not restored). The
// other policies have one scorer each, so they run once per
// configuration, store-checked after every add.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/crawler/abort_policy.h"
#include "src/crawler/adaptive_selector.h"
#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/mmmi_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/retry_policy.h"
#include "src/crawler/trace_io.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "tests/reference_greedy_selector.h"
#include "tests/reference_local_store.h"
#include "tests/reference_mmmi_selector.h"

namespace deepcrawl {
namespace {

constexpr uint64_t kFaultSeed = 29;
constexpr uint64_t kSelectorSeed = 5;

// Policies with a single implementation; "greedy" and "mmmi" are
// instead run against their rescan oracles, "greedy-reference" and
// "mmmi-reference".
const char* const kSingleScorerPolicies[] = {"bfs", "dfs", "random"};
const char* const kProfiles[] = {"none", "flaky", "lossy", "hostile"};

struct NamedRanking {
  const char* name;
  MmmiRanking ranking;
};
const NamedRanking kRankings[] = {
    {"pure", MmmiRanking::kPureDependency},
    {"degree-discount", MmmiRanking::kDegreeDiscount},
    {"weighted", MmmiRanking::kWeightedDependency},
};

// How queries drain. Only the incomplete drains let an issued query's
// local frequency move after it completed.
enum class Drain { kComplete, kResultLimit, kAbort };

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

std::unique_ptr<QuerySelector> MakeSelector(const std::string& policy,
                                            const LocalStore& store,
                                            const MmmiOptions& mmmi) {
  if (policy == "bfs") return std::make_unique<BfsSelector>();
  if (policy == "dfs") return std::make_unique<DfsSelector>();
  if (policy == "random") {
    return std::make_unique<RandomSelector>(kSelectorSeed);
  }
  if (policy == "greedy") return std::make_unique<GreedyLinkSelector>(store);
  if (policy == "greedy-reference") {
    return std::make_unique<ReferenceGreedySelector>(store);
  }
  if (policy == "adaptive" || policy == "adaptive-reference") {
    // bfs first, so greedy sits out the first phase while bfs takes
    // values from under its heap; the switch happens on this small
    // target.
    std::vector<std::unique_ptr<QuerySelector>> children;
    children.push_back(std::make_unique<BfsSelector>());
    children.push_back(MakeSelector(
        policy == "adaptive" ? "greedy" : "greedy-reference", store, mmmi));
    return std::make_unique<AdaptiveSelector>(std::move(children));
  }
  if (policy == "mmmi") return std::make_unique<MmmiSelector>(store, mmmi);
  if (policy == "mmmi-reference") {
    return std::make_unique<ReferenceMmmiSelector>(store, mmmi);
  }
  ADD_FAILURE() << "unknown policy " << policy;
  return nullptr;
}

// Forwards every event to the crawl's real selector. After each
// OnRecordHarvested it feeds the new record into a ReferenceLocalStore
// and checks that the crawl's store agrees with the oracle on every
// value of that record. Only the first divergence is reported. It also
// counts harvested records that contain an already-completed query.
class StoreOracleSelector : public QuerySelector {
 public:
  StoreOracleSelector(std::unique_ptr<QuerySelector> inner,
                      const LocalStore& store)
      : inner_(std::move(inner)), store_(store) {}

  void OnValueDiscovered(ValueId v) override { inner_->OnValueDiscovered(v); }

  void OnRecordHarvested(uint32_t slot) override {
    EXPECT_EQ(slot, oracle_.num_records());
    std::span<const ValueId> values = store_.RecordValues(slot);
    EXPECT_TRUE(oracle_.AddRecord(store_.OriginalRecordId(slot), values));
    for (ValueId v : values) {
      if (diverged_) break;
      ::testing::AssertionResult match =
          ValueMatchesReference(store_, oracle_, v);
      if (!match) {
        ADD_FAILURE() << "after harvesting slot " << slot << ": "
                      << match.message();
        diverged_ = true;
      }
    }
    ++checked_adds_;
    for (ValueId v : values) {
      if (completed_.count(v) != 0) {
        ++late_records_;
        break;
      }
    }
    inner_->OnRecordHarvested(slot);
  }

  void OnQueryCompleted(const QueryOutcome& outcome) override {
    completed_.insert(outcome.value);
    inner_->OnQueryCompleted(outcome);
  }
  void OnSaturation() override { inner_->OnSaturation(); }
  void OnValueTaken(ValueId v) override { inner_->OnValueTaken(v); }
  ValueId SelectNext() override { return inner_->SelectNext(); }
  std::string_view name() const override { return inner_->name(); }
  bool MaySelectUndiscovered() const override {
    return inner_->MaySelectUndiscovered();
  }

  QuerySelector& inner() { return *inner_; }
  ReferenceLocalStore& oracle() { return oracle_; }
  uint64_t checked_adds() const { return checked_adds_; }
  // Records harvested after one of their values' queries completed.
  uint64_t late_records() const { return late_records_; }

 private:
  std::unique_ptr<QuerySelector> inner_;
  const LocalStore& store_;
  ReferenceLocalStore oracle_;
  std::unordered_set<ValueId> completed_;
  uint64_t checked_adds_ = 0;
  uint64_t late_records_ = 0;
  bool diverged_ = false;
};

// Forwards every call to `inner` and counts how often each record id
// appears on a page that came back OK. A crawl that returns OK commits
// every page it fetched, so with the tap between the engine and the
// server these counts are the records' observation counts.
class ObservationTap : public QueryInterface {
 public:
  explicit ObservationTap(QueryInterface& inner) : inner_(inner) {}

  StatusOr<ResultPage> FetchPage(ValueId value,
                                 uint32_t page_number) override {
    return Count(inner_.FetchPage(value, page_number));
  }
  StatusOr<ResultPage> FetchPageKeywordOf(ValueId value,
                                          uint32_t page_number) override {
    return Count(inner_.FetchPageKeywordOf(value, page_number));
  }
  uint64_t communication_rounds() const override {
    return inner_.communication_rounds();
  }
  uint64_t queries_issued() const override { return inner_.queries_issued(); }
  void ResetMeters() override { inner_.ResetMeters(); }
  RttCounters rtt_counters() const override { return inner_.rtt_counters(); }
  const ServerOptions& options() const override { return inner_.options(); }
  bool IsQueriableValue(ValueId value) const override {
    return inner_.IsQueriableValue(value);
  }
  uint32_t num_values() const override { return inner_.num_values(); }

  const std::unordered_map<RecordId, uint32_t>& appearances() const {
    return appearances_;
  }

 private:
  StatusOr<ResultPage> Count(StatusOr<ResultPage> page) {
    if (page.ok()) {
      for (const ReturnedRecord& record : page->records) {
        ++appearances_[record.id];
      }
    }
    return page;
  }

  QueryInterface& inner_;
  std::unordered_map<RecordId, uint32_t> appearances_;
};

// Feeds every repeat appearance the tap saw into the store oracle and
// compares the observation statistics with the crawl's store.
void ExpectObservationsMatch(const LocalStore& store,
                             const ObservationTap& tap,
                             ReferenceLocalStore& oracle) {
  EXPECT_EQ(tap.appearances().size(), oracle.num_records());
  for (const auto& [id, appearances] : tap.appearances()) {
    for (uint32_t i = 1; i < appearances; ++i) {
      EXPECT_TRUE(oracle.ObserveIfStored(id)) << "record " << id;
    }
  }
  EXPECT_EQ(store.num_observations(), oracle.num_observations());
  for (uint32_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(store.RecordsObservedTimes(k), oracle.RecordsObservedTimes(k))
        << "records observed " << k << " times";
  }
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

CrawlOptions BaseOptions(const Table& target) {
  CrawlOptions options;
  // Past the switch-over most of the crawl runs MMMI batches — exactly
  // the path whose scoring implementation is under test.
  options.saturation_records =
      static_cast<uint64_t>(0.6 * static_cast<double>(target.num_records()));
  return options;
}

// Everything two equivalent crawls must agree on, including the
// byte-exact CSV rendering of the trace.
struct RunOutput {
  CrawlResult result;
  std::vector<RecordId> harvest_order;
  std::string trace_csv;
  uint64_t late_records = 0;  // not compared
  uint64_t phase_switches = 0;  // adaptive chains only; not compared
  size_t restored_frontier = 0;  // resumed crawls only; not compared
};

RunOutput Capture(const CrawlResult& result, const LocalStore& store) {
  RunOutput out;
  out.result = result;
  out.harvest_order.reserve(store.num_records());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    out.harvest_order.push_back(store.OriginalRecordId(slot));
  }
  std::ostringstream csv;
  Status written = WriteTraceCsv(result.trace, csv);
  DEEPCRAWL_CHECK(written.ok()) << written.ToString();
  out.trace_csv = csv.str();
  return out;
}

// One crawl at `batch` (1 = the serial configuration). The store is
// checked against the oracle after every add.
RunOutput RunVariant(const std::string& policy,
                     const std::string& profile_name, uint32_t batch,
                     const MmmiOptions& mmmi = MmmiOptions{},
                     Drain drain = Drain::kComplete) {
  const Table& target = DifferentialTarget();
  CrawlOptions options = BaseOptions(target);
  ServerOptions server_options;
  if (drain == Drain::kResultLimit) server_options.result_limit = 20;
  std::optional<DuplicateRatioAbort> abort_policy;
  if (drain == Drain::kAbort) abort_policy.emplace(1, 0.5);
  WebDbServer backend(target, server_options);
  FaultProfile profile = ProfileByName(profile_name);
  std::optional<FaultyServer> faulty;
  QueryInterface* server = &backend;
  if (!profile.IsAllZero()) {
    faulty.emplace(backend, profile, kFaultSeed);
    server = &*faulty;
  }
  ObservationTap tap(*server);
  LocalStore store;
  StoreOracleSelector selector(MakeSelector(policy, store, mmmi), store);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(tap, selector, store, options,
                      EngineOptions{.batch = batch},
                      abort_policy ? &*abort_policy : nullptr, &retry);
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  EXPECT_EQ(selector.checked_adds(), store.num_records());
  ExpectObservationsMatch(store, tap, selector.oracle());
  RunOutput out = Capture(*result, store);
  out.late_records = selector.late_records();
  if (auto* adaptive = dynamic_cast<AdaptiveSelector*>(&selector.inner())) {
    out.phase_switches = adaptive->phase_switches();
  }
  return out;
}

// A greedy crawl interrupted at a mid-crawl checkpoint and resumed in a
// fresh stack (new store, selector, engine and fault proxy), so the
// second half runs on the state LoadState rebuilt. No store oracle: the
// resumed store starts from a replay the oracle never saw.
RunOutput RunGreedyResumed(const std::string& profile_name, uint32_t batch) {
  const Table& target = DifferentialTarget();
  const EngineOptions engine_options{.batch = batch};
  struct Stack {
    WebDbServer backend;
    std::optional<FaultyServer> faulty;
    QueryInterface* server = nullptr;
    LocalStore store;
    GreedyLinkSelector selector{store};
    RetryPolicy retry{RetryPolicyConfig()};
    Stack(const Table& table, const FaultProfile& profile)
        : backend(table, ServerOptions()) {
      server = &backend;
      if (!profile.IsAllZero()) {
        faulty.emplace(backend, profile, kFaultSeed);
        server = &*faulty;
      }
    }
    FaultyServer* faulty_ptr() { return faulty ? &*faulty : nullptr; }
  };
  FaultProfile profile = ProfileByName(profile_name);

  // First leg: a one-shot crawl that encodes a checkpoint every 16
  // waves; the resume starts from the middle one.
  std::vector<std::string> images;
  {
    Stack first(target, profile);
    EngineOptions checkpointing = engine_options;
    checkpointing.checkpoint_every_waves = 1;
    FaultyServer* faulty = first.faulty_ptr();
    checkpointing.checkpoint_sink = [&images,
                                     faulty](const CrawlEngine& engine) {
      StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, faulty);
      if (!image.ok()) return image.status();
      images.push_back(std::move(*image));
      return Status::OK();
    };
    CrawlEngine crawler(*first.server, first.selector, first.store,
                        BaseOptions(target), checkpointing, nullptr,
                        &first.retry);
    crawler.AddSeed(FirstQueriableSeed(target));
    StatusOr<CrawlResult> result = crawler.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  }
  DEEPCRAWL_CHECK(!images.empty()) << "crawl ended before its first wave";
  const std::string& image = images[images.size() / 2];

  // Second leg: restore and run to the end.
  Stack second(target, profile);
  CrawlEngine crawler(*second.server, second.selector, second.store,
                      BaseOptions(target), engine_options, nullptr,
                      &second.retry);
  Status loaded = DecodeCrawlCheckpoint(image, crawler, second.faulty_ptr());
  DEEPCRAWL_CHECK(loaded.ok()) << loaded.ToString();
  size_t restored_frontier = second.selector.frontier_size();
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  EXPECT_EQ(second.selector.heap_size(), 0u);
  RunOutput out = Capture(*result, second.store);
  out.restored_frontier = restored_frontier;
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
  EXPECT_EQ(a.trace_csv, b.trace_csv);  // byte-identical serialization
}

// The greedy heap and the incremental MMMI scorer vs their rescan
// oracles (MMMI under every ranking) for every fault profile, and one
// crawl of every other policy; each crawl is store-checked after every
// add. batch == 1 is the serial engine.
//
// Under no faults and flaky ones MMMI also runs at MmmiOptions
// batch_size 1 and 3. There a signature group often holds batch_size
// members or more, so the walk takes batch_size of them and jumps past
// the rest of the group (at 1, after every group it meets), and every
// crawl rescores values whose key comes back unchanged.
void CheckAllProfiles(uint32_t batch, const std::string& label) {
  for (const char* profile : kProfiles) {
    ExpectIdentical(RunVariant("greedy", profile, batch),
                    RunVariant("greedy-reference", profile, batch),
                    label + "/greedy/" + profile);
    std::vector<uint32_t> batch_sizes = {MmmiOptions{}.batch_size};
    if (std::string(profile) == "none" || std::string(profile) == "flaky") {
      batch_sizes.insert(batch_sizes.end(), {1u, 3u});
    }
    for (const NamedRanking& named : kRankings) {
      for (uint32_t batch_size : batch_sizes) {
        const MmmiOptions mmmi{.batch_size = batch_size,
                               .ranking = named.ranking};
        ExpectIdentical(RunVariant("mmmi", profile, batch, mmmi),
                        RunVariant("mmmi-reference", profile, batch, mmmi),
                        label + "/mmmi/" + named.name + "/batch-size-" +
                            std::to_string(batch_size) + "/" + profile);
      }
    }
    for (const char* policy : kSingleScorerPolicies) {
      SCOPED_TRACE(label + "/" + policy + "/" + profile);
      RunVariant(policy, profile, batch);
    }
  }
}

TEST(HotPathDifferentialTest, SerialAllPoliciesAllProfiles) {
  CheckAllProfiles(1, "serial");
}

// The batched engine at --batch 8: same cross-check. Batched waves
// change the crawl order relative to serial, so this exercises the
// optimized structures under a genuinely different event sequence.
TEST(HotPathDifferentialTest, Batch8AllPolicies) {
  CheckAllProfiles(8, "batched");
}

// A result limit or a §3.4 abort leaves a completed query's records
// behind; harvesting them later moves the issued query's frequency and
// with it the score of every pending partner. Every ranking, serial and
// at batch 8.
TEST(HotPathDifferentialTest, IncompleteDrainsAllRankings) {
  const std::pair<Drain, const char*> drains[] = {
      {Drain::kResultLimit, "result-limit"}, {Drain::kAbort, "abort"}};
  for (const auto& [drain, drain_name] : drains) {
    for (const NamedRanking& named : kRankings) {
      for (uint32_t batch : {1u, 8u}) {
        std::string label = std::string(drain_name) + "/" + named.name +
                            (batch == 1 ? "/serial" : "/batched");
        const MmmiOptions mmmi{.ranking = named.ranking};
        RunOutput fast = RunVariant("mmmi", "none", batch, mmmi, drain);
        ExpectIdentical(
            fast, RunVariant("mmmi-reference", "none", batch, mmmi, drain),
            label);
        EXPECT_GT(fast.late_records, 0u) << label;
      }
    }
  }
}

// Greedy as the second child of an adaptive chain: while bfs is active,
// every value it issues reaches greedy through OnValueTaken and leaves
// greedy's frontier but not its heap, so after the switch greedy's
// SelectNext must skip those entries.
TEST(HotPathDifferentialTest, GreedyAfterAdaptiveSwitchAllProfiles) {
  for (const char* profile : kProfiles) {
    for (uint32_t batch : {1u, 8u}) {
      std::string label = std::string("adaptive/") + profile +
                          (batch == 1 ? "/serial" : "/batched");
      RunOutput fast = RunVariant("adaptive", profile, batch);
      ExpectIdentical(fast, RunVariant("adaptive-reference", profile, batch),
                      label);
      EXPECT_GT(fast.phase_switches, 0u) << label;
    }
  }
}

// A greedy crawl resumed from a checkpoint taken halfway must finish
// exactly as the uninterrupted oracle crawl does. (Under "lossy" the
// seed's page comes back truncated to nothing, so that crawl ends after
// one wave and resumes at its end; every other crawl resumes with a
// nonempty frontier.)
TEST(HotPathDifferentialTest, GreedyCheckpointResumeMidCrawl) {
  int mid_crawl_resumes = 0;
  for (const char* profile : kProfiles) {
    for (uint32_t batch : {1u, 8u}) {
      std::string label = std::string("resume/") + profile +
                          (batch == 1 ? "/serial" : "/batched");
      RunOutput resumed = RunGreedyResumed(profile, batch);
      if (resumed.restored_frontier > 0) ++mid_crawl_resumes;
      ExpectIdentical(resumed, RunVariant("greedy-reference", profile, batch),
                      label);
    }
  }
  EXPECT_GE(mid_crawl_resumes, 6);
}

}  // namespace
}  // namespace deepcrawl
