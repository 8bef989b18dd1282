// Integration tests of the crawl loop under injected faults: determinism
// of the fault/retry machinery, coverage parity with a fault-free crawl,
// graceful degradation (re-queue then abandon), and resumption of a
// drain interrupted by the round budget (no page re-issued, no record
// double-counted).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/naive_selectors.h"
#include "src/datagen/movie_domain.h"
#include "src/server/faulty_server.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;
using testing_util::MakeTable;

// First value id with at least one matching record (valid crawl seed).
ValueId FirstQueriableSeed(const Table& table) {
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (table.value_frequency(v) > 0) return v;
  }
  ADD_FAILURE() << "table has no queriable value";
  return kInvalidValueId;
}

// Sorted original record ids harvested into `store`.
std::vector<RecordId> HarvestedIds(const LocalStore& store) {
  std::vector<RecordId> ids;
  ids.reserve(store.num_records());
  for (uint32_t slot = 0; slot < store.num_records(); ++slot) {
    ids.push_back(store.OriginalRecordId(slot));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Table SmallMovieTarget() {
  MovieDomainPairConfig config;
  config.universe_size = 3000;
  config.target_size = 900;
  config.seed = 7;
  StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
  DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
  return std::move(pair->target);
}

// Acceptance criterion: identical seed + FaultProfile => bit-identical
// CrawlTrace (points and resilience counters) across two runs.
TEST(CrawlerResilienceTest, DeterministicTraceUnderFaults) {
  Table target = SmallMovieTarget();
  FaultProfile profile;
  profile.unavailable_rate = 0.05;
  profile.timeout_rate = 0.03;
  profile.rate_limit_rate = 0.02;
  profile.truncate_rate = 0.02;
  profile.duplicate_rate = 0.02;

  auto run = [&]() {
    WebDbServer backend(target, ServerOptions());
    FaultyServer server(backend, profile, /*seed=*/11);
    LocalStore store;
    GreedyLinkSelector selector(store);
    RetryPolicy retry((RetryPolicyConfig()));
    CrawlEngine crawler(server, selector, store, CrawlOptions(),
                        EngineOptions{}, /*abort_policy=*/nullptr, &retry);
    crawler.AddSeed(FirstQueriableSeed(target));
    StatusOr<CrawlResult> result = crawler.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return std::move(*result);
  };

  CrawlResult first = run();
  CrawlResult second = run();
  EXPECT_EQ(first.rounds, second.rounds);
  EXPECT_EQ(first.queries, second.queries);
  EXPECT_EQ(first.records, second.records);
  EXPECT_EQ(first.trace.points(), second.trace.points());
  EXPECT_EQ(first.resilience, second.resilience);
  // The profile actually fired — this is not a vacuous comparison.
  EXPECT_GT(first.resilience.transient_failures, 0u);
}

// Acceptance criterion: 10% transient faults on the movie domain leave
// the final record set identical to the fault-free crawl, at no more
// than 1.5x the communication rounds.
TEST(CrawlerResilienceTest, CoverageParityUnderTransientFaults) {
  Table target = SmallMovieTarget();
  ValueId seed_value = FirstQueriableSeed(target);

  WebDbServer clean_server(target, ServerOptions());
  LocalStore clean_store;
  GreedyLinkSelector clean_selector(clean_store);
  CrawlEngine clean_crawler(clean_server, clean_selector, clean_store,
                            CrawlOptions());
  clean_crawler.AddSeed(seed_value);
  StatusOr<CrawlResult> clean = clean_crawler.Run();
  ASSERT_TRUE(clean.ok());

  WebDbServer backend(target, ServerOptions());
  FaultyServer faulty(backend, FaultProfile::Transient(0.10), /*seed=*/23);
  LocalStore store;
  GreedyLinkSelector selector(store);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(faulty, selector, store, CrawlOptions(), EngineOptions{},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(seed_value);
  StatusOr<CrawlResult> faulted = crawler.Run();
  ASSERT_TRUE(faulted.ok());

  EXPECT_GT(faulted->resilience.transient_failures, 0u);
  EXPECT_EQ(HarvestedIds(store), HarvestedIds(clean_store));
  EXPECT_LE(faulted->rounds, clean->rounds * 3 / 2);
  EXPECT_GE(faulted->rounds, clean->rounds);
}

// An all-zero profile behind a retry policy changes nothing about the
// crawl: same trace, same meters, no resilience activity.
TEST(CrawlerResilienceTest, AllZeroProfileCrawlMatchesBareServer) {
  Table target = SmallMovieTarget();
  ValueId seed_value = FirstQueriableSeed(target);

  WebDbServer bare(target, ServerOptions());
  LocalStore bare_store;
  GreedyLinkSelector bare_selector(bare_store);
  CrawlEngine bare_crawler(bare, bare_selector, bare_store, CrawlOptions());
  bare_crawler.AddSeed(seed_value);
  StatusOr<CrawlResult> want = bare_crawler.Run();
  ASSERT_TRUE(want.ok());

  WebDbServer backend(target, ServerOptions());
  FaultyServer proxy(backend, FaultProfile(), /*seed=*/5);
  LocalStore store;
  GreedyLinkSelector selector(store);
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(proxy, selector, store, CrawlOptions(), EngineOptions{},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(seed_value);
  StatusOr<CrawlResult> got = crawler.Run();
  ASSERT_TRUE(got.ok());

  EXPECT_EQ(got->rounds, want->rounds);
  EXPECT_EQ(got->queries, want->queries);
  EXPECT_EQ(got->records, want->records);
  EXPECT_EQ(got->trace.points(), want->trace.points());
  EXPECT_EQ(got->resilience, ResilienceCounters());
}

// Graceful degradation end to end: a value whose fetches always fail is
// retried max_attempts times per drain, re-queued max_requeues times,
// then abandoned — and the crawl ends normally instead of dying.
TEST(CrawlerResilienceTest, RetryExhaustionRequeuesThenAbandons) {
  Table table = MakeTable({{{"Brand", "toyota"}, {"Vin", "v0"}}});
  WebDbServer backend(table, ServerOptions());
  FaultyServer server(backend, FaultProfile(), /*seed=*/1);
  // Defaults: max_attempts = 4, max_requeues = 2 => 3 drains of 4 failed
  // attempts each before the value is written off.
  server.set_schedule(FaultSchedule(12, FaultAction::kUnavailable));

  LocalStore store;
  BfsSelector selector;
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(server, selector, store, CrawlOptions(), EngineOptions{},
                      /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(GetValueId(table, "Brand", "toyota"));
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->stop_reason, StopReason::kFrontierExhausted);
  EXPECT_EQ(result->records, 0u);
  EXPECT_EQ(result->rounds, 12u);    // every attempt cost a round
  EXPECT_EQ(result->queries, 3u);    // initial drain + 2 re-queues
  EXPECT_EQ(result->resilience.transient_failures, 12u);
  EXPECT_EQ(result->resilience.retries, 9u);  // 3 per drain
  EXPECT_EQ(result->resilience.requeues, 2u);
  EXPECT_EQ(result->resilience.abandoned_values, 1u);
  EXPECT_EQ(result->resilience.degraded_queries, 3u);
  // Each drain backs off before its 2nd, 3rd and 4th attempt.
  ValueId toyota = GetValueId(table, "Brand", "toyota");
  Status unavailable = Status::Unavailable("503");
  EXPECT_EQ(result->resilience.backoff_ticks,
            3 * (retry.BackoffTicks(unavailable, 1, toyota) +
                 retry.BackoffTicks(unavailable, 2, toyota) +
                 retry.BackoffTicks(unavailable, 3, toyota)));
  EXPECT_EQ(result->rounds, server.communication_rounds());
}

// Without a retry policy the first transient failure fails the crawl —
// the pre-resilience contract, still the default.
TEST(CrawlerResilienceTest, NoPolicyMeansFailuresAreFatal) {
  Table table = MakeTable({{{"Brand", "toyota"}, {"Vin", "v0"}}});
  WebDbServer backend(table, ServerOptions());
  FaultyServer server(backend, FaultProfile(), /*seed=*/1);
  server.set_schedule({FaultAction::kUnavailable});

  LocalStore store;
  BfsSelector selector;
  CrawlEngine crawler(server, selector, store, CrawlOptions());
  crawler.AddSeed(GetValueId(table, "Brand", "toyota"));
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// Satellite: the round budget expiring mid-drain (with a fault in the
// middle) parks the drain; the next Run() resumes at the page after the
// last one fetched. The drained prefix is not re-issued and its records
// are not double-counted.
TEST(CrawlerResilienceTest, MidDrainBudgetExpiryResumesWithoutReissuing) {
  Table table = MakeFigure1Table();
  ServerOptions options;
  options.page_size = 1;  // every record is its own page
  ValueId seed_value = GetValueId(table, "C", "c2");  // 3 matches

  // Reference: the fault-free, unbudgeted crawl from the same seed.
  WebDbServer clean_server(table, options);
  LocalStore clean_store;
  BfsSelector clean_selector;
  CrawlEngine clean_crawler(clean_server, clean_selector, clean_store,
                            CrawlOptions());
  clean_crawler.AddSeed(seed_value);
  StatusOr<CrawlResult> clean = clean_crawler.Run();
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->records, 5u);

  WebDbServer backend(table, options);
  FaultyServer server(backend, FaultProfile(), /*seed=*/1);
  // Second fetch of the c2 drain times out once.
  server.set_schedule({FaultAction::kNone, FaultAction::kTimeout});

  LocalStore store;
  BfsSelector selector;
  RetryPolicy retry((RetryPolicyConfig()));
  CrawlEngine crawler(server, selector, store, CrawlOptions{.max_rounds = 2},
                      EngineOptions{}, /*abort_policy=*/nullptr, &retry);
  crawler.AddSeed(seed_value);

  // Slice 1: page 0 harvested, then the failed fetch of page 1 exhausts
  // the budget mid-retry-backoff.
  StatusOr<CrawlResult> slice = crawler.Run();
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->stop_reason, StopReason::kRoundBudget);
  EXPECT_EQ(slice->rounds, 2u);
  EXPECT_EQ(slice->queries, 1u);
  EXPECT_EQ(slice->records, 1u);
  EXPECT_EQ(slice->resilience.transient_failures, 1u);

  // Slice 2: unbounded. The drain resumes at page 1 (the failed page),
  // never re-fetching page 0, and the crawl completes.
  crawler.set_max_rounds(0);
  StatusOr<CrawlResult> rest = crawler.Run();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->stop_reason, StopReason::kFrontierExhausted);
  EXPECT_EQ(rest->records, 5u);
  EXPECT_EQ(HarvestedIds(store), HarvestedIds(clean_store));
  // Exactly one extra round versus the clean crawl: the failed attempt.
  EXPECT_EQ(rest->rounds, clean->rounds + 1);
  // Resuming the parked drain is not a new query submission.
  EXPECT_EQ(rest->queries, clean->queries);
  // No page was fetched twice, so no record was observed twice beyond
  // what the fault-free crawl observes.
  EXPECT_EQ(store.num_observations(), clean_store.num_observations());
}

}  // namespace
}  // namespace deepcrawl
