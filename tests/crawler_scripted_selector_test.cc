#include "src/crawler/scripted_selector.h"

#include <gtest/gtest.h>

#include "src/crawler/crawl_engine.h"
#include "src/graph/attribute_value_graph.h"
#include "src/graph/dominating_set.h"
#include "src/graph/set_cover.h"
#include "src/server/web_db_server.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeFigure1Table;

TEST(ScriptedSelectorTest, WalksScriptInOrder) {
  ScriptedSelector selector({7, 3, 9});
  EXPECT_EQ(selector.remaining(), 3u);
  selector.OnValueDiscovered(42);  // ignored
  EXPECT_EQ(selector.SelectNext(), 7u);
  EXPECT_EQ(selector.SelectNext(), 3u);
  EXPECT_EQ(selector.remaining(), 1u);
  EXPECT_EQ(selector.SelectNext(), 9u);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(ScriptedSelectorTest, EmptyScript) {
  ScriptedSelector selector({});
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
}

TEST(ScriptedSelectorTest, WmdsPlanDiscoversEveryValueButCanMissRecords) {
  // Definition 2.4 made executable. Crawling a dominating set of the
  // VALUE graph discovers every distinct value — but a record none of
  // whose own values made the set is never retrieved (see set_cover.h).
  Table table = MakeFigure1Table();
  WebDbServer server(table, ServerOptions{});
  AttributeValueGraph graph = AttributeValueGraph::Build(table);
  DominatingSetResult plan = GreedyWeightedDominatingSet(
      graph, [&](ValueId v) {
        return static_cast<double>(server.FullRetrievalCost(v));
      });

  LocalStore store;
  ScriptedSelector selector(plan.vertices);
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, plan.vertices.size());
  // Every value was discovered (domination)...
  size_t values_seen = 0;
  for (ValueId v = 0; v < table.num_distinct_values(); ++v) {
    if (store.LocalFrequency(v) > 0) ++values_seen;
  }
  EXPECT_EQ(values_seen, table.num_distinct_values());
  // ...but on Figure 1's graph the greedy dominating set misses the
  // (a3, b4, c2) record when c2 is only dominated, not selected.
  EXPECT_LE(result->records, table.num_records());
}

TEST(ScriptedSelectorTest, SetCoverPlanRetrievesEveryRecord) {
  // The corrected offline plan: weighted set cover over postings.
  Table table = MakeFigure1Table();
  WebDbServer server(table, ServerOptions{});
  InvertedIndex index(table);
  SetCoverResult plan = GreedyWeightedSetCover(
      table, index, [&](ValueId v) {
        return static_cast<double>(server.FullRetrievalCost(v));
      });
  ASSERT_EQ(plan.uncovered_records, 0u);
  ASSERT_TRUE(IsRecordCover(table, index, plan.values));

  LocalStore store;
  ScriptedSelector selector(plan.values);
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, table.num_records());
  EXPECT_EQ(result->queries, plan.values.size());
  // Executed cost matches the plan's predicted weight (full drains).
  EXPECT_EQ(result->rounds, static_cast<uint64_t>(plan.total_weight));
}

TEST(ScriptedSelectorTest, ScriptIsAuthoritativeOverDiscovery) {
  // Even values never discovered by the crawl are issued (and already-
  // covered values are issued again per the script).
  Table table = MakeFigure1Table();
  WebDbServer server(table, ServerOptions{});
  ValueId a2 = GetValueId(table, "A", "a2");
  LocalStore store;
  ScriptedSelector selector({a2, a2});  // deliberate duplicate
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  StatusOr<CrawlResult> result = crawler.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, 2u);  // the duplicate was really issued
  EXPECT_EQ(result->records, 3u);  // but harvested nothing new
}

}  // namespace
}  // namespace deepcrawl
