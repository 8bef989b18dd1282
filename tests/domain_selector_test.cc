// Tests of the §4 domain-knowledge selector: estimators, pool movement,
// lazy evaluation, and end-to-end crawls with a domain table.

#include "src/domain/domain_selector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;

struct Fixture {
  Table target;
  Table sample;
  DomainTable dt;

  Fixture(std::vector<testing_util::Row> target_rows,
          std::vector<testing_util::Row> sample_rows)
      : target(MakeTable(std::move(target_rows))),
        sample(MakeTable(std::move(sample_rows))),
        dt(DomainTable::Build(sample, target.schema(),
                              target.mutable_catalog())) {}
};

TEST(DomainSelectorTest, QdtCandidatesAreServedByDomainFrequency) {
  // Target has nothing discovered; all queries come from the DT pool,
  // ordered by descending P(qi, DM).
  Fixture fx({{{"Actor", "zzz"}, {"Title", "t0"}}},  // target content
             {
                 {{"Actor", "hanks"}, {"Title", "s0"}},
                 {{"Actor", "hanks"}, {"Title", "s1"}},
                 {{"Actor", "hanks"}, {"Title", "s2"}},
                 {{"Actor", "hanks"}, {"Title", "s3"}},
                 {{"Actor", "streep"}, {"Title", "s4"}},
                 {{"Actor", "streep"}, {"Title", "s5"}},
                 {{"Actor", "streep"}, {"Title", "s6"}},
                 {{"Actor", "dafoe"}, {"Title", "s7"}},
                 {{"Actor", "dafoe"}, {"Title", "s8"}},
             });
  LocalStore store;
  DomainSelector selector(store, fx.dt);

  StatusOr<AttributeId> actor = fx.target.schema().FindAttribute("Actor");
  ASSERT_TRUE(actor.ok());
  ValueId hanks = fx.target.catalog().Find(*actor, "hanks");
  ValueId streep = fx.target.catalog().Find(*actor, "streep");
  ValueId dafoe = fx.target.catalog().Find(*actor, "dafoe");

  EXPECT_EQ(selector.SelectNext(), hanks);
  EXPECT_EQ(selector.SelectNext(), streep);
  EXPECT_EQ(selector.SelectNext(), dafoe);
}

TEST(DomainSelectorTest, DiscoveredDtValueMovesToQdbPool) {
  Fixture fx({{{"Actor", "hanks"}, {"Title", "t0"}}},
             {
                 {{"Actor", "hanks"}, {"Title", "s0"}},
                 {{"Actor", "streep"}, {"Title", "s1"}},
             });
  LocalStore store;
  DomainSelector selector(store, fx.dt);

  ValueId hanks = GetValueId(fx.target, "Actor", "hanks");
  // The crawler discovers hanks from a result page...
  selector.OnValueDiscovered(hanks);
  store.AddRecord(0, std::vector<ValueId>{hanks});
  selector.OnRecordHarvested(0);
  // ...so hanks is now a Q_DB candidate and must be served exactly once
  // across both pools.
  int hanks_servings = 0;
  int total_servings = 0;
  for (;;) {
    ValueId v = selector.SelectNext();
    if (v == kInvalidValueId) break;
    ++total_servings;
    if (v == hanks) ++hanks_servings;
    ASSERT_LE(total_servings, 100) << "selector failed to terminate";
  }
  EXPECT_EQ(hanks_servings, 1);
  // Every DT entry (4 distinct values) is served once, no more.
  EXPECT_EQ(total_servings, 4);
}

TEST(DomainSelectorTest, SmoothedProbabilityUsesDeltaDm) {
  Fixture fx({{{"Actor", "hanks"}, {"Title", "t0"}}},
             {
                 {{"Actor", "hanks"}, {"Title", "s0"}},
                 {{"Actor", "streep"}, {"Title", "s1"}},
             });
  LocalStore store;
  DomainSelector selector(store, fx.dt);

  ValueId hanks = GetValueId(fx.target, "Actor", "hanks");
  ValueId t0 = GetValueId(fx.target, "Title", "t0");  // unknown to DM

  // Before any harvest: P(hanks) = 1/2, no delta mass.
  EXPECT_NEAR(selector.SmoothedDomainProbability(hanks), 0.5, 1e-12);

  // Harvest the target record (hanks, t0): t0 is not in DM, so the
  // record joins Delta-DM: |dDM| = 1.
  selector.OnValueDiscovered(hanks);
  selector.OnValueDiscovered(t0);
  store.AddRecord(0, std::vector<ValueId>{hanks, t0});
  selector.OnRecordHarvested(0);

  // P(hanks) = (1 + 1) / (1 + 2) = 2/3; P(t0) = (1 + 0) / 3.
  EXPECT_NEAR(selector.SmoothedDomainProbability(hanks), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(selector.SmoothedDomainProbability(t0), 1.0 / 3.0, 1e-12);
}

TEST(DomainSelectorTest, QdtHitRateTracksDiscoveredValues) {
  Fixture fx({{{"Actor", "hanks"}, {"Title", "t0"}}},
             {
                 {{"Actor", "hanks"}, {"Title", "s0"}},
             });
  LocalStore store;
  DomainSelector selector(store, fx.dt);
  EXPECT_DOUBLE_EQ(selector.QdtHitRate(), 1.0);  // optimistic start

  ValueId hanks = GetValueId(fx.target, "Actor", "hanks");
  ValueId t0 = GetValueId(fx.target, "Title", "t0");
  selector.OnValueDiscovered(hanks);  // in DM
  EXPECT_DOUBLE_EQ(selector.QdtHitRate(), 1.0);
  selector.OnValueDiscovered(t0);  // not in DM
  EXPECT_DOUBLE_EQ(selector.QdtHitRate(), 0.5);
}

TEST(DomainSelectorTest, QueriedCoverageGrowsByUnion) {
  Fixture fx({{{"Actor", "hanks"}, {"Title", "t0"}}},
             {
                 {{"Actor", "hanks"}, {"Title", "s0"}},
                 {{"Actor", "hanks"}, {"Title", "s1"}},
                 {{"Actor", "streep"}, {"Title", "s2"}},
                 {{"Actor", "dafoe"}, {"Title", "s3"}},
             });
  LocalStore store;
  DomainSelector selector(store, fx.dt);
  EXPECT_DOUBLE_EQ(selector.QueriedDomainCoverage(), 0.0);

  QueryOutcome outcome;
  outcome.value = GetValueId(fx.target, "Actor", "hanks");
  selector.OnQueryCompleted(outcome);
  EXPECT_DOUBLE_EQ(selector.QueriedDomainCoverage(), 0.5);  // s0, s1 of 4

  StatusOr<AttributeId> actor = fx.target.schema().FindAttribute("Actor");
  outcome.value = fx.target.catalog().Find(*actor, "streep");
  selector.OnQueryCompleted(outcome);
  EXPECT_DOUBLE_EQ(selector.QueriedDomainCoverage(), 0.75);

  // Re-completing the same query does not double count.
  selector.OnQueryCompleted(outcome);
  EXPECT_DOUBLE_EQ(selector.QueriedDomainCoverage(), 0.75);
}

TEST(DomainSelectorTest, QdbEstimatorFollowsEquation42) {
  Fixture fx(
      {
          {{"Actor", "hanks"}, {"Title", "t0"}},
          {{"Actor", "hanks"}, {"Title", "t1"}},
          {{"Actor", "streep"}, {"Title", "t2"}},
      },
      {
          {{"Actor", "hanks"}, {"Title", "s0"}},
          {{"Actor", "hanks"}, {"Title", "s1"}},
          {{"Actor", "hanks"}, {"Title", "s2"}},
          {{"Actor", "streep"}, {"Title", "s3"}},
      });
  LocalStore store;
  DomainSelector selector(store, fx.dt, /*page_size=*/2);

  ValueId hanks = GetValueId(fx.target, "Actor", "hanks");
  ValueId streep = GetValueId(fx.target, "Actor", "streep");
  selector.OnValueDiscovered(hanks);

  // No evidence yet: both estimates are the optimistic full page.
  EXPECT_TRUE(std::isinf(selector.EstimateMatches(hanks)));
  EXPECT_DOUBLE_EQ(selector.EstimateHarvestRateQdb(hanks), 2.0);

  // Issue streep so P(Lqueried, DM) = 1/4 (record s3 of the sample).
  QueryOutcome outcome;
  outcome.value = streep;
  selector.OnQueryCompleted(outcome);
  EXPECT_DOUBLE_EQ(selector.QueriedDomainCoverage(), 0.25);

  // One hanks record local. Eq. 4.2: num~ = |DBlocal| * P(hanks, DM)
  // / P(Lqueried, DM) = 1 * (3/4) / (1/4) = 3.
  store.AddRecord(0, std::vector<ValueId>{hanks});
  selector.OnRecordHarvested(0);
  EXPECT_DOUBLE_EQ(selector.EstimateMatches(hanks), 3.0);
  // Yield: (3 - 1) new records over ceil(3/2) = 2 rounds.
  EXPECT_DOUBLE_EQ(selector.EstimateHarvestRateQdb(hanks), 1.0);

  // Fully-drained prediction: when num_local catches up with num~, the
  // rate bottoms out at zero.
  store.AddRecord(1, std::vector<ValueId>{hanks});
  selector.OnRecordHarvested(1);
  store.AddRecord(2, std::vector<ValueId>{hanks});
  selector.OnRecordHarvested(2);
  // num~ = 3 * (3/4) / (1/4) = 9, num_local = 3: rate (9-3)/ceil(9/2).
  EXPECT_DOUBLE_EQ(selector.EstimateMatches(hanks), 9.0);
  EXPECT_DOUBLE_EQ(selector.EstimateHarvestRateQdb(hanks), 6.0 / 5.0);
}

TEST(DomainSelectorTest, QdtEstimatorCombinesHitRateAndMatches) {
  Fixture fx({{{"Actor", "hanks"}, {"Title", "t0"}}},
             {
                 {{"Actor", "hanks"}, {"Title", "s0"}},
                 {{"Actor", "ghost"}, {"Title", "s1"}},
             });
  LocalStore store;
  DomainSelector selector(store, fx.dt, /*page_size=*/2);
  StatusOr<AttributeId> actor = fx.target.schema().FindAttribute("Actor");
  ASSERT_TRUE(actor.ok());
  ValueId ghost = fx.target.catalog().Find(*actor, "ghost");
  ASSERT_NE(ghost, kInvalidValueId);

  // Optimistic before evidence: hit rate 1, full page.
  EXPECT_DOUBLE_EQ(selector.EstimateHarvestRateQdt(ghost), 2.0);

  ValueId hanks = GetValueId(fx.target, "Actor", "hanks");
  ValueId t0 = GetValueId(fx.target, "Title", "t0");
  selector.OnValueDiscovered(hanks);  // in DM
  selector.OnValueDiscovered(t0);     // not in DM -> hit rate 1/2
  store.AddRecord(0, std::vector<ValueId>{hanks, t0});
  selector.OnRecordHarvested(0);
  QueryOutcome outcome;
  outcome.value = hanks;
  selector.OnQueryCompleted(outcome);  // P(Lqueried, DM) = 1/2

  // num~(ghost) = |DBlocal| * P(ghost) / P_queried. The record (hanks,
  // t0) contains t0 which DM lacks, so it joined Delta-DM:
  // P(ghost) = (0 + 1) / (1 + 2) = 1/3; num~ = 1 * (1/3) / (1/2) = 2/3.
  EXPECT_NEAR(selector.EstimateMatches(ghost), 2.0 / 3.0, 1e-12);
  // Rate = hit * num~ / ceil: 0.5 * (2/3) / 1.
  EXPECT_NEAR(selector.EstimateHarvestRateQdt(ghost), 1.0 / 3.0, 1e-12);
}

TEST(DomainSelectorTest, EndToEndCrawlWithPerfectDomainTable) {
  // DT built from the target itself: the selector should reach full
  // coverage (every target value is a DT candidate).
  std::vector<testing_util::Row> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({{"Actor", "a" + std::to_string(i % 7)},
                    {"Title", "t" + std::to_string(i)}});
  }
  Table target = MakeTable(rows);
  Table sample = MakeTable(rows);
  DomainTable dt =
      DomainTable::Build(sample, target.schema(), target.mutable_catalog());

  ServerOptions server_options;
  server_options.page_size = 4;
  WebDbServer server(target, server_options);
  LocalStore store;
  DomainSelector selector(store, dt);
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  // No seeds needed: Q_DT supplies every query.
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, target.num_records());
}

TEST(DomainSelectorTest, ReachesRecordsOutsideSeedComponent) {
  // §4 Limitation 2 ("data islands"): GL starting in island 1 never
  // reaches island 2; DM does, because the DT contributes island-2
  // values as candidates.
  std::vector<testing_util::Row> rows = {
      {{"Actor", "a1"}, {"Title", "t1"}},
      {{"Actor", "a1"}, {"Title", "t2"}},
      {{"Actor", "a2"}, {"Title", "t3"}},  // island 2
  };
  Table target = MakeTable(rows);
  Table sample = MakeTable(rows);
  DomainTable dt =
      DomainTable::Build(sample, target.schema(), target.mutable_catalog());

  WebDbServer server(target, ServerOptions{});
  ValueId a1 = GetValueId(target, "Actor", "a1");

  {
    LocalStore store;
    GreedyLinkSelector gl(store);
    CrawlEngine crawler(server, gl, store, CrawlOptions{});
    crawler.AddSeed(a1);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->records, 2u);  // stuck in island 1
  }
  {
    LocalStore store;
    DomainSelector dm(store, dt);
    CrawlEngine crawler(server, dm, store, CrawlOptions{});
    crawler.AddSeed(a1);
    StatusOr<CrawlResult> result = crawler.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->records, 3u);  // DT bridges the islands
  }
}

TEST(DomainSelectorTest, DtOnlyValuesCostARoundAndReturnNothing) {
  // A DT value absent from the target burns one round (hit-rate exists
  // exactly to down-weight such queries).
  Fixture fx({{{"Actor", "hanks"}, {"Title", "t0"}}},
             {
                 {{"Actor", "ghost"}, {"Title", "s0"}},
                 {{"Actor", "ghost"}, {"Title", "s1"}},
             });
  WebDbServer server(fx.target, ServerOptions{});
  LocalStore store;
  DomainSelector selector(store, fx.dt);
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, 0u);  // ghost matches nothing
  EXPECT_GE(result->rounds, 1u);
}


TEST(DomainSelectorTest, ExactWindowOverridesLazyRatioOrdering) {
  // The §4.4 lazy key P(q,DM)/num_local ignores the ceil() in the cost;
  // SelectNext re-scores a window of the heap exactly. Construct a case
  // where the lazy ratio prefers B but the true per-round yield prefers
  // A (B's estimated matches span 3 pages, A's fit in one):
  //   DM (32 records): A in 10, B in 22, Q in 4.
  //   DBlocal (4 records): A in 1, B in 2, Q in all 4; Q was queried.
  std::vector<testing_util::Row> sample_rows;
  for (int i = 0; i < 10; ++i) {
    sample_rows.push_back({{"V", "A"}, {"V", "B"}});
  }
  for (int i = 0; i < 12; ++i) {
    sample_rows.push_back({{"V", "B"}, {"W", "f" + std::to_string(i)}});
  }
  for (int i = 0; i < 4; ++i) {
    sample_rows.push_back({{"V", "Q"}, {"W", "g" + std::to_string(i)}});
  }
  std::vector<testing_util::Row> target_rows = {
      {{"V", "Q"}, {"V", "A"}, {"V", "B"}},
      {{"V", "Q"}, {"V", "B"}},
      {{"V", "Q"}, {"V", "X"}},
      {{"V", "Q"}, {"V", "Y"}},
  };
  Fixture fx(std::move(target_rows), std::move(sample_rows));
  LocalStore store;
  DomainSelector selector(store, fx.dt, /*page_size=*/10);

  ValueId a = GetValueId(fx.target, "V", "A");
  ValueId b = GetValueId(fx.target, "V", "B");
  ValueId q = GetValueId(fx.target, "V", "Q");
  ValueId x = GetValueId(fx.target, "V", "X");
  ValueId y = GetValueId(fx.target, "V", "Y");

  // Harvest the four target records (as if Q had been queried).
  selector.OnValueDiscovered(a);
  selector.OnValueDiscovered(b);
  selector.OnValueDiscovered(x);
  selector.OnValueDiscovered(y);
  store.AddRecord(0, std::vector<ValueId>{q, a, b});
  selector.OnRecordHarvested(0);
  store.AddRecord(1, std::vector<ValueId>{q, b});
  selector.OnRecordHarvested(1);
  store.AddRecord(2, std::vector<ValueId>{q, x});
  selector.OnRecordHarvested(2);
  store.AddRecord(3, std::vector<ValueId>{q, y});
  selector.OnRecordHarvested(3);
  QueryOutcome outcome;
  outcome.value = q;
  selector.OnQueryCompleted(outcome);

  // Estimates: num~(A) ~ 9.4 (1 page), num~(B) ~ 20.7 (3 pages).
  EXPECT_GT(selector.EstimateMatches(b), 10.0);
  EXPECT_LT(selector.EstimateMatches(a), 10.0);
  double rate_a = selector.EstimateHarvestRateQdb(a);
  double rate_b = selector.EstimateHarvestRateQdb(b);
  EXPECT_GT(rate_a, rate_b);
  // The lazy ratio prefers B (22/2 = 11 > 10/1); the exact window must
  // still surface A.
  EXPECT_EQ(selector.SelectNext(), a);
}

}  // namespace
}  // namespace deepcrawl
