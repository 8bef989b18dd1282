// Stress tests for the batched crawl engine: wide waves against a
// fault-injecting source with a scripted schedule, checking that no
// record is lost or double-counted and that retry work stays within the
// policy's bounds, whatever order each wave's fetches are served in.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/local_store.h"
#include "src/crawler/naive_selectors.h"
#include "src/crawler/retry_policy.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "src/util/random.h"
#include "tests/shuffled_fetch_executor.h"

namespace deepcrawl {
namespace {

const Table& StressTarget() {
  static const Table* table = [] {
    MovieDomainPairConfig config;
    config.universe_size = 2000;
    config.target_size = 600;
    config.seed = 11;
    StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
    DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
    return new Table(std::move(pair->target));
  }();
  return *table;
}

ValueId FirstQueriableSeed(const Table& table) {
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  ADD_FAILURE() << "table has no queriable value";
  return kInvalidValueId;
}

std::set<RecordId> HarvestedIds(const LocalStore& store) {
  std::set<RecordId> ids;
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    ids.insert(store.OriginalRecordId(slot));
  }
  return ids;
}

// A scripted schedule of failure-only faults (no record-mutating
// actions, so every record stays fetchable), with bursts of at most 2
// consecutive failures. The schedule is positional — action i hits the
// i-th fetch in ARRIVAL order — so which query meets which fault
// depends on the order a wave's fetches are served in; the assertions
// below are therefore order-robust invariants, not exact counts.
FaultSchedule FailureBurstSchedule(size_t length) {
  FaultSchedule schedule;
  Pcg32 rng(17);
  size_t consecutive = 0;
  while (schedule.size() < length) {
    uint32_t draw = rng.NextBounded(10);
    FaultAction action = FaultAction::kNone;
    if (consecutive < 2) {
      if (draw < 2) {
        action = FaultAction::kUnavailable;
      } else if (draw < 3) {
        action = FaultAction::kTimeout;
      } else if (draw < 4) {
        action = FaultAction::kRateLimit;
      }
    }
    consecutive = (action == FaultAction::kNone) ? 0 : consecutive + 1;
    schedule.push_back(action);
  }
  return schedule;
}

// Fault-free reference harvest: which records a full BFS crawl from the
// seed can reach at all.
std::set<RecordId> ReferenceHarvest(const Table& target) {
  WebDbServer backend(target, ServerOptions());
  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(backend, selector, store, CrawlOptions{});
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> result = crawler.Run();
  DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
  return HarvestedIds(store);
}

TEST(ParallelCrawlerStressTest, NoRecordLostOrDuplicatedUnderFaults) {
  const Table& target = StressTarget();
  std::set<RecordId> reference = ReferenceHarvest(target);
  ASSERT_FALSE(reference.empty());

  WebDbServer backend(target, ServerOptions());
  FaultyServer faulty(backend, FaultProfile(), /*seed=*/1);
  FaultSchedule schedule = FailureBurstSchedule(800);
  size_t scheduled_failures = static_cast<size_t>(std::count_if(
      schedule.begin(), schedule.end(),
      [](FaultAction a) { return a != FaultAction::kNone; }));
  faulty.set_schedule(std::move(schedule));

  LocalStore store;
  BfsSelector selector;
  RetryPolicy retry((RetryPolicyConfig()));
  ShuffledFetchExecutor shuffler(/*seed=*/3);
  CrawlEngine crawler(
      faulty, selector, store, CrawlOptions{},
      EngineOptions{.batch = 8, .shared_executor = &shuffler},
      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // No duplicated records: the store's record count equals the number
  // of distinct original ids, and every harvested id is a real one.
  std::set<RecordId> harvested = HarvestedIds(store);
  EXPECT_EQ(store.num_records(), harvested.size());
  EXPECT_EQ(result->records, harvested.size());
  for (RecordId id : harvested) ASSERT_TRUE(reference.count(id));

  // No lost records: the only sanctioned loss path is value
  // abandonment, so whenever nothing was abandoned the harvest must be
  // EXACTLY the fault-free harvest. (With bursts of <= 2 against a
  // retry budget of 4 attempts, abandonment needs 12 scheduled
  // failures to land on one value — allowed by the positional
  // schedule's arrival-order dependence, but not silently: it shows up
  // in the counters below.)
  const ResilienceCounters& res = result->resilience;
  if (res.abandoned_values == 0) {
    EXPECT_EQ(harvested, reference);
  }

  // Retry accounting is internally consistent and bounded, under every
  // fetch order: each failure is either retried or ends its drain
  // attempt (degrading the query); a requeue costs a full 4-attempt
  // budget; a degraded query was either re-queued or abandoned.
  EXPECT_GT(res.transient_failures, 0u);
  EXPECT_LE(res.transient_failures, scheduled_failures);
  EXPECT_EQ(res.retries + res.degraded_queries, res.transient_failures);
  EXPECT_EQ(res.requeues + res.abandoned_values, res.degraded_queries);
  EXPECT_LE(res.requeues, res.transient_failures / 4);

  // Cost accounting stayed exact: the server's meter and the crawler's
  // round count agree.
  EXPECT_EQ(result->rounds, faulty.communication_rounds());
}

TEST(ParallelCrawlerStressTest, RepeatedRunsAreIdenticalAcrossSchedulings) {
  // Hammer the engine: the same crawl 5 times, inline and then under
  // four differently shuffled fetch orders, must produce the same
  // result every time.
  const Table& target = StressTarget();
  std::vector<TracePoint> reference_trace;
  std::set<RecordId> reference_ids;
  for (int attempt = 0; attempt < 5; ++attempt) {
    WebDbServer backend(target, ServerOptions());
    FaultyServer faulty(backend, FaultProfile::Transient(0.08), /*seed=*/5);
    faulty.set_keyed_faults(true);
    LocalStore store;
    BfsSelector selector;
    RetryPolicy retry((RetryPolicyConfig()));
    ShuffledFetchExecutor shuffler(/*seed=*/attempt);
    CrawlEngine crawler(
        faulty, selector, store, CrawlOptions{},
        EngineOptions{.batch = 6,
                      .shared_executor = attempt == 0 ? nullptr : &shuffler},
        nullptr, &retry);
    crawler.AddSeed(FirstQueriableSeed(target));
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (attempt == 0) {
      reference_trace = result->trace.points();
      reference_ids = HarvestedIds(store);
      ASSERT_FALSE(reference_trace.empty());
    } else {
      EXPECT_EQ(result->trace.points(), reference_trace);
      EXPECT_EQ(HarvestedIds(store), reference_ids);
    }
  }
}

TEST(ParallelCrawlerStressTest, GreedyHeapGrowthStaysBoundedUnderFaults) {
  // The greedy selector's indexed heap holds one entry per value the
  // frontier received and raises keys in place as degrees grow, so its
  // lifetime push count equals the number of values the frontier
  // received — not one per degree increment, and not one per (record,
  // value) harvest event. Any excess means the heap regressed into
  // re-pushing.
  class CountingGreedySelector : public GreedyLinkSelector {
   public:
    using GreedyLinkSelector::GreedyLinkSelector;
    void OnValueDiscovered(ValueId v) override {
      ++received_;
      GreedyLinkSelector::OnValueDiscovered(v);
    }
    uint64_t received() const { return received_; }

   private:
    uint64_t received_ = 0;
  };
  const Table& target = StressTarget();
  WebDbServer backend(target, ServerOptions());
  FaultyServer faulty(backend, FaultProfile::Transient(0.08), /*seed=*/5);
  faulty.set_keyed_faults(true);
  LocalStore store;
  CountingGreedySelector selector(store);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(faulty, selector, store, CrawlOptions{},
                      EngineOptions{.batch = 8}, nullptr, &retry);
  crawler.AddSeed(FirstQueriableSeed(target));
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(store.num_records(), 0u);

  EXPECT_GT(selector.received(), 1u);
  EXPECT_EQ(selector.heap_pushes(), selector.received())
      << "heap pushes differ from the values the frontier received";
  // The crawl ran to completion, so the frontier is exhausted and the
  // heap was fully drained.
  EXPECT_EQ(selector.frontier_size(), 0u);
  EXPECT_EQ(selector.heap_size(), 0u);
}

}  // namespace
}  // namespace deepcrawl
