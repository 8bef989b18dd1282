// Behavioral tests of MMMI's marginal-phase ranking on the §3.3
// motivating structure: near-duplicate ("derived twin") values whose
// high degree fools plain greedy selection.

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;

// After querying a seller, its store twin is pure duplication; an
// uncorrelated value with the same degree is fresh.
TEST(MmmiBehaviorTest, DerivedTwinIsDeprioritizedAfterSourceQueried) {
  // Records: seller s1 <-> store t1 always together (twins); value u
  // co-occurs with various other values (uncorrelated with s1).
  Table table = MakeTable({
      {{"Seller", "s1"}, {"Store", "t1"}, {"Item", "i1"}},
      {{"Seller", "s1"}, {"Store", "t1"}, {"Item", "i2"}},
      {{"Seller", "s1"}, {"Store", "t1"}, {"Item", "i3"}},
      {{"Other", "u"}, {"Item", "j1"}},
      {{"Other", "u"}, {"Item", "j2"}},
      {{"Other", "u"}, {"Item", "j3"}},
  });
  WebDbServer server(table, ServerOptions{});
  LocalStore store;
  MmmiSelector selector(store);

  ValueId s1 = GetValueId(table, "Seller", "s1");
  ValueId t1 = GetValueId(table, "Store", "t1");
  ValueId u = GetValueId(table, "Other", "u");

  // Simulate: s1 was queried and its three records harvested; one j
  // record revealed u.
  selector.OnValueDiscovered(t1);
  selector.OnValueDiscovered(u);
  for (RecordId r : {0u, 1u, 2u, 3u}) {
    std::vector<ValueId> values(table.record(r).begin(),
                                table.record(r).end());
    store.AddRecord(r, values);
    selector.OnRecordHarvested(
        static_cast<uint32_t>(store.num_records() - 1));
  }
  QueryOutcome outcome;
  outcome.value = s1;
  selector.OnQueryCompleted(outcome);
  selector.OnSaturation();

  // Degrees: t1 has degree 5 (s1, i1..i3... plus), u has degree 1 (j1).
  // Plain greedy would pick t1; MMMI must pick u first — t1's records
  // are all duplicates of s1's results.
  EXPECT_GT(store.LocalDegree(t1), store.LocalDegree(u));
  EXPECT_EQ(selector.SelectNext(), u);
}

TEST(MmmiBehaviorTest, PureDependencyModeOrdersAscendingByScore) {
  LocalStore store;
  MmmiSelector selector(store,
                        MmmiOptions{10, MmmiRanking::kPureDependency});
  selector.OnValueDiscovered(10);  // strongly tied to issued query 1
  selector.OnValueDiscovered(20);  // weakly tied
  store.AddRecord(0, std::vector<ValueId>{1, 10});
  selector.OnRecordHarvested(0);
  store.AddRecord(1, std::vector<ValueId>{1, 10});
  selector.OnRecordHarvested(1);
  store.AddRecord(2, std::vector<ValueId>{1, 20});
  selector.OnRecordHarvested(2);
  store.AddRecord(3, std::vector<ValueId>{2, 20});
  selector.OnRecordHarvested(3);
  QueryOutcome outcome;
  outcome.value = 1;
  selector.OnQueryCompleted(outcome);
  selector.OnSaturation();

  // s(10) = ln(2*4/(2*3)) = ln(4/3) > s(20) = ln(1*4/(2*3)) = ln(2/3).
  EXPECT_GT(selector.DependencyScore(10), selector.DependencyScore(20));
  EXPECT_EQ(selector.SelectNext(), 20u);
  EXPECT_EQ(selector.SelectNext(), 10u);
}

TEST(MmmiBehaviorTest, EndToEndTwinDatabaseFavorsMmmi) {
  // A database where every record carries a seller and its derived
  // store twin: at the margin, half of greedy's high-degree candidates
  // are pure duplicates. MMMI should never be (meaningfully) worse.
  std::vector<testing_util::Row> rows;
  for (int s = 0; s < 40; ++s) {
    int records = 1 + (s % 5);
    for (int r = 0; r < records; ++r) {
      rows.push_back({
          {"Seller", "s" + std::to_string(s)},
          {"Store", "t" + std::to_string(s / 2)},
          {"Category", "c" + std::to_string(s % 7)},
          {"Item", "i" + std::to_string(s) + "_" + std::to_string(r)},
      });
    }
  }
  Table table = MakeTable(rows);
  WebDbServer server(table, ServerOptions{});
  CrawlOptions options;
  options.target_records = table.num_records();
  options.saturation_records = table.num_records() * 7 / 10;

  uint64_t rounds_greedy, rounds_mmmi;
  {
    LocalStore store;
    GreedyLinkSelector selector(store);
    server.ResetMeters();
    CrawlEngine crawler(server, selector, store, options);
    crawler.AddSeed(GetValueId(table, "Category", "c0"));
    rounds_greedy = crawler.Run()->rounds;
  }
  {
    LocalStore store;
    MmmiSelector selector(store);
    server.ResetMeters();
    CrawlEngine crawler(server, selector, store, options);
    crawler.AddSeed(GetValueId(table, "Category", "c0"));
    rounds_mmmi = crawler.Run()->rounds;
  }
  // At this micro scale the saving is within noise; the aggregate claim
  // lives in IntegrationTest.MmmiSqueezesMarginalContentCheaper. Here we
  // only require MMMI not to degrade materially on its home turf.
  EXPECT_LE(rounds_mmmi, rounds_greedy * 115 / 100);
}

}  // namespace
}  // namespace deepcrawl
