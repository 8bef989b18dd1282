// Tests of the Min-Max Mutual Information selector (§3.3).

#include "src/crawler/mmmi_selector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/server/web_db_server.h"
#include "tests/reference_mmmi_selector.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;

TEST(MmmiSelectorTest, BehavesLikeGreedyBeforeSaturation) {
  LocalStore store;
  MmmiSelector selector(store);
  EXPECT_FALSE(selector.saturated());
  selector.OnValueDiscovered(1);
  selector.OnValueDiscovered(2);
  store.AddRecord(0, std::vector<ValueId>{2, 3, 4});
  selector.OnRecordHarvested(0);
  EXPECT_EQ(selector.SelectNext(), 2u);  // highest degree, greedy phase
}

// Harvests each record into `store` and reports it to `selector`, the
// way the crawl engine does.
void Harvest(LocalStore& store, MmmiSelector& selector,
             const std::vector<std::vector<ValueId>>& records) {
  for (const std::vector<ValueId>& values : records) {
    uint32_t slot = static_cast<uint32_t>(store.num_records());
    ASSERT_TRUE(store.AddRecord(slot, values));
    selector.OnRecordHarvested(slot);
  }
}

TEST(MmmiSelectorTest, DependencyScoreIsMaxPmiWithIssuedQueries) {
  LocalStore store;
  MmmiSelector selector(store);
  selector.OnValueDiscovered(10);
  selector.OnValueDiscovered(20);
  // DBlocal: 4 records. Value 10 always co-occurs with issued query 1;
  // value 20 never does.
  Harvest(store, selector, {{1, 10}, {1, 10}, {2, 20}, {2, 30}});

  // Query 1 completes after its records were harvested: the backfill
  // credits them.
  QueryOutcome q1;
  q1.value = 1;
  selector.OnQueryCompleted(q1);

  // s(10) = ln( P(10,1) / (P(10) P(1)) ) = ln( (2/4) / ((2/4)(2/4)) )
  //       = ln 2.
  EXPECT_NEAR(selector.DependencyScore(10), std::log(2.0), 1e-12);
  // Value 20 shares no record with any issued query.
  EXPECT_EQ(selector.DependencyScore(20),
            -std::numeric_limits<double>::infinity());
}

TEST(MmmiSelectorTest, DependencyScoreTakesMaxOverQueries) {
  LocalStore store;
  MmmiSelector selector(store);
  selector.OnValueDiscovered(10);
  Harvest(store, selector, {{1, 10}});

  // Query 1's record was harvested before it completed (backfill path);
  // query 2 completes before its records arrive (live path).
  QueryOutcome q;
  q.value = 1;
  selector.OnQueryCompleted(q);
  q.value = 2;
  selector.OnQueryCompleted(q);
  Harvest(store, selector, {{2, 10}, {2, 10}, {3, 4}});

  // PMI with 2 (co=2, freq2=2, freq10=3): ln(2*4/(3*2)) = ln(4/3).
  // PMI with 1 (co=1, freq1=1, freq10=3): ln(1*4/(3*1)) = ln(4/3).
  EXPECT_NEAR(selector.DependencyScore(10), std::log(4.0 / 3.0), 1e-12);
}

TEST(MmmiSelectorTest, AfterSaturationPrefersUncorrelatedCandidates) {
  LocalStore store;
  MmmiSelector selector(store);
  // Frontier: 10 (correlated with issued 1), 20 (uncorrelated).
  selector.OnValueDiscovered(10);
  selector.OnValueDiscovered(20);
  store.AddRecord(0, std::vector<ValueId>{1, 10});
  selector.OnRecordHarvested(0);
  store.AddRecord(1, std::vector<ValueId>{1, 10, 11});
  selector.OnRecordHarvested(1);
  store.AddRecord(2, std::vector<ValueId>{2, 20});
  selector.OnRecordHarvested(2);

  QueryOutcome q1;
  q1.value = 1;
  selector.OnQueryCompleted(q1);

  // Greedy would pick 10 (degree 3 > degree 1); MMMI picks 20.
  selector.OnSaturation();
  EXPECT_TRUE(selector.saturated());
  EXPECT_EQ(selector.SelectNext(), 20u);
  EXPECT_EQ(selector.SelectNext(), 10u);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(MmmiSelectorTest, BatchIsRecomputedWhenExhausted) {
  MmmiOptions options;
  options.batch_size = 1;  // force re-ranking on every selection
  LocalStore store;
  MmmiSelector selector(store, options);
  selector.OnValueDiscovered(10);
  selector.OnValueDiscovered(20);
  selector.OnValueDiscovered(30);
  store.AddRecord(0, std::vector<ValueId>{10, 20, 30});
  selector.OnRecordHarvested(0);
  selector.OnSaturation();
  std::set<ValueId> drained;
  for (int i = 0; i < 3; ++i) drained.insert(selector.SelectNext());
  EXPECT_EQ(drained, (std::set<ValueId>{10, 20, 30}));
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(MmmiSelectorTest, ValuesDiscoveredAfterSaturationAreStillServed) {
  LocalStore store;
  MmmiSelector selector(store);
  selector.OnSaturation();
  selector.OnValueDiscovered(5);
  store.AddRecord(0, std::vector<ValueId>{5, 6});
  selector.OnRecordHarvested(0);
  EXPECT_EQ(selector.SelectNext(), 5u);
}

// A value can enter the frontier with no record yet (a seed added
// mid-crawl); it must still reach the ranking.
TEST(MmmiSelectorTest, ValueDiscoveredWithoutRecordAfterSaturationIsServed) {
  LocalStore store;
  MmmiSelector selector(store);
  selector.OnSaturation();
  selector.OnValueDiscovered(7);
  EXPECT_EQ(selector.SelectNext(), 7u);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

// Feeds one event script to an MmmiSelector and to its rescan oracle
// over a shared store, and checks every SelectNext against the oracle.
class TwinSelectors {
 public:
  explicit TwinSelectors(MmmiOptions options)
      : fast_(store_, options), oracle_(store_, options) {}

  void Discover(ValueId v) {
    fast_.OnValueDiscovered(v);
    oracle_.OnValueDiscovered(v);
  }
  void Harvest(const std::vector<ValueId>& values) {
    uint32_t slot = static_cast<uint32_t>(store_.num_records());
    ASSERT_TRUE(store_.AddRecord(slot, values));
    fast_.OnRecordHarvested(slot);
    oracle_.OnRecordHarvested(slot);
  }
  void Complete(ValueId v) {
    QueryOutcome outcome;
    outcome.value = v;
    fast_.OnQueryCompleted(outcome);
    oracle_.OnQueryCompleted(outcome);
  }
  void Saturate() {
    fast_.OnSaturation();
    oracle_.OnSaturation();
  }
  ValueId SelectNext() {
    ValueId v = fast_.SelectNext();
    EXPECT_EQ(v, oracle_.SelectNext());
    return v;
  }

 private:
  LocalStore store_;
  MmmiSelector fast_;
  ReferenceMmmiSelector oracle_;
};

// Value 10's signature goes A -> B -> A across three batches: issuing
// query 2 raises its best co/f_u from 1/2 to 1/1, then a late record of
// the already-issued query 2 (as after an abandoned or limited drain)
// brings it back to 1/2. A ranking structure that kept a stale entry
// at key A would see 10 twice in batch 3 and refill early; the value
// injected after batch 3's first pick would then jump the queue.
TEST(MmmiSelectorTest, KeyReturningToAnEarlierValueKeepsBatchesFull) {
  const MmmiRanking rankings[] = {MmmiRanking::kPureDependency,
                                  MmmiRanking::kDegreeDiscount,
                                  MmmiRanking::kWeightedDependency};
  for (MmmiRanking ranking : rankings) {
    SCOPED_TRACE(static_cast<int>(ranking));
    TwinSelectors twins(MmmiOptions{2, ranking});
    for (ValueId v : {10u, 40u, 20u, 21u, 22u, 23u}) twins.Discover(v);
    twins.Harvest({1, 10});
    twins.Harvest({1, 40});
    twins.Harvest({2, 10});
    twins.Harvest({20, 21, 22, 23});
    twins.Complete(1);
    twins.Saturate();

    std::vector<std::vector<ValueId>> batches(4);
    for (int i = 0; i < 2; ++i) batches[0].push_back(twins.SelectNext());
    twins.Complete(2);  // 10: best co/f_u 1/2 -> 1/1
    for (int i = 0; i < 2; ++i) batches[1].push_back(twins.SelectNext());
    twins.Harvest({2, 97});  // f_2 = 2: 10 back to 1/2
    batches[2].push_back(twins.SelectNext());
    twins.Discover(30);
    twins.Harvest({30, 96});
    batches[2].push_back(twins.SelectNext());
    for (ValueId v = twins.SelectNext(); v != kInvalidValueId;
         v = twins.SelectNext()) {
      batches[3].push_back(v);
    }

    EXPECT_EQ(batches[2], (std::vector<ValueId>{10, 40}));
    EXPECT_EQ(batches[3], (std::vector<ValueId>{30}));
    std::set<ValueId> served;
    for (size_t b = 0; b < 3; ++b) {
      EXPECT_EQ(batches[b].size(), 2u);
      for (ValueId v : batches[b]) {
        EXPECT_NE(v, kInvalidValueId);
        EXPECT_TRUE(served.insert(v).second) << "served twice: " << v;
      }
    }
  }
}

TEST(MmmiSelectorTest, FullCrawlWithSaturationSwitchCompletes) {
  // End-to-end: a correlated database crawled through the switch-over.
  std::vector<testing_util::Row> rows;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 6; ++i) {
      rows.push_back({
          // A shared marketplace value keeps the AVG connected across
          // the otherwise-disjoint communities.
          {"Shop", "main"},
          {"Community", "c" + std::to_string(c)},
          {"Member", "m" + std::to_string(c) + "_" + std::to_string(i % 3)},
          {"Item", "i" + std::to_string(c) + "_" + std::to_string(i)},
      });
    }
  }
  Table table = MakeTable(rows);
  ServerOptions server_options;
  server_options.page_size = 3;
  WebDbServer server(table, server_options);
  LocalStore store;
  MmmiSelector selector(store);
  CrawlOptions crawl_options;
  crawl_options.saturation_records = table.num_records() / 2;
  CrawlEngine crawler(server, selector, store, crawl_options);
  crawler.AddSeed(GetValueId(table, "Community", "c0"));

  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(selector.saturated());
  EXPECT_EQ(result->records, table.num_records());
}

}  // namespace
}  // namespace deepcrawl
