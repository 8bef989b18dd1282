// Unit tests for the competitive-optimal selector family
// (src/crawler/optimal_selector.h): interval parsing, hierarchy
// construction, the rank/threshold descent mechanics (right-before-left
// order, count-arithmetic skipping, empty-result and degraded-drain
// handling, deterministic tie-breaking), and checkpoint resume
// mid-descent including options/hierarchy mismatch rejection. The end-to-end
// competitive bounds live in
// tests/crawler_optimal_competitive_property_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/crawler/checkpoint.h"
#include "src/crawler/crawl_engine.h"
#include "src/crawler/local_store.h"
#include "src/crawler/optimal_selector.h"
#include "src/server/web_db_server.h"
#include "src/util/checkpoint_io.h"
#include "tests/test_util.h"

namespace deepcrawl {
namespace {

using testing_util::GetValueId;
using testing_util::MakeTable;
using testing_util::Row;

TEST(OptimalSelectorTest, ParseIntervalAcceptsWellFormed) {
  uint32_t lo = 99;
  uint32_t hi = 99;
  EXPECT_TRUE(QueryHierarchy::ParseInterval("r0-3", lo, hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 3u);
  EXPECT_TRUE(QueryHierarchy::ParseInterval("r007-012", lo, hi));
  EXPECT_EQ(lo, 7u);
  EXPECT_EQ(hi, 12u);
  EXPECT_TRUE(QueryHierarchy::ParseInterval("r5-5", lo, hi));
  EXPECT_EQ(lo, 5u);
  EXPECT_EQ(hi, 5u);
}

TEST(OptimalSelectorTest, ParseIntervalRejectsMalformed) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  EXPECT_FALSE(QueryHierarchy::ParseInterval("", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r0-", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r-3", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("x0-3", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r0_3", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r3-0", lo, hi));  // lo > hi
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r0-3x", lo, hi));
  EXPECT_FALSE(QueryHierarchy::ParseInterval("r0-1234567890", lo, hi));
}

// The standard fixture: a complete dyadic hierarchy over 4 buckets, one
// record per bucket carrying its full ancestor chain plus a "name"
// value outside the hierarchy.
Table DyadicTable() {
  std::vector<Row> rows;
  const char* mids[] = {"r0-1", "r0-1", "r2-3", "r2-3"};
  for (int bucket = 0; bucket < 4; ++bucket) {
    rows.push_back(Row{{"range", "r0-3"},
                       {"range", mids[bucket]},
                       {"range", "r" + std::to_string(bucket) + "-" +
                                     std::to_string(bucket)},
                       {"name", "n" + std::to_string(bucket)}});
  }
  return MakeTable(rows);
}

QueryHierarchy HierarchyOf(const Table& table) {
  StatusOr<AttributeId> attr = table.schema().FindAttribute("range");
  DEEPCRAWL_CHECK(attr.ok());
  StatusOr<QueryHierarchy> hierarchy =
      QueryHierarchy::FromCatalog(table.catalog(), *attr);
  DEEPCRAWL_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  return std::move(hierarchy).value();
}

TEST(OptimalSelectorTest, FromCatalogBuildsNestedForest) {
  Table table = DyadicTable();
  QueryHierarchy hierarchy = HierarchyOf(table);
  ASSERT_EQ(hierarchy.num_nodes(), 7u);  // 1 + 2 + 4
  ASSERT_EQ(hierarchy.roots().size(), 1u);
  const QueryHierarchy::Node& root = hierarchy.node(hierarchy.roots()[0]);
  EXPECT_EQ(root.lo, 0u);
  EXPECT_EQ(root.hi, 3u);
  EXPECT_EQ(root.parent, QueryHierarchy::kNoNode);
  ASSERT_EQ(root.children.size(), 2u);
  // Children sorted ascending by lo.
  const QueryHierarchy::Node& left = hierarchy.node(root.children[0]);
  const QueryHierarchy::Node& right = hierarchy.node(root.children[1]);
  EXPECT_EQ(left.lo, 0u);
  EXPECT_EQ(left.hi, 1u);
  EXPECT_EQ(right.lo, 2u);
  EXPECT_EQ(right.hi, 3u);
  ASSERT_EQ(left.children.size(), 2u);
  ASSERT_EQ(right.children.size(), 2u);
  EXPECT_EQ(hierarchy.node(left.children[0]).lo, 0u);
  EXPECT_EQ(hierarchy.node(left.children[1]).lo, 1u);

  // Value <-> node mapping round-trips; non-hierarchy values map to
  // kNoNode.
  ValueId root_value = GetValueId(table, "range", "r0-3");
  EXPECT_EQ(hierarchy.node(hierarchy.NodeOf(root_value)).value, root_value);
  EXPECT_EQ(hierarchy.NodeOf(GetValueId(table, "name", "n0")),
            QueryHierarchy::kNoNode);
}

TEST(OptimalSelectorTest, FromCatalogIgnoresNonIntervalTexts) {
  Table table = MakeTable({
      {{"range", "r0-1"}, {"range", "cheap"}, {"name", "n0"}},
      {{"range", "r0-1"}, {"range", "r9"}, {"name", "n1"}},
  });
  QueryHierarchy hierarchy = HierarchyOf(table);
  EXPECT_EQ(hierarchy.num_nodes(), 1u);
}

TEST(OptimalSelectorTest, FromCatalogEmptyWithoutAttribute) {
  Table table = MakeTable({{{"name", "n0"}}});
  StatusOr<QueryHierarchy> hierarchy =
      QueryHierarchy::FromCatalog(table.catalog(), kInvalidAttributeId);
  ASSERT_TRUE(hierarchy.ok());
  EXPECT_TRUE(hierarchy->empty());
}

TEST(OptimalSelectorTest, FromCatalogRejectsPartialOverlap) {
  Table table = MakeTable({
      {{"range", "r0-3"}, {"name", "n0"}},
      {{"range", "r2-5"}, {"name", "n1"}},
  });
  StatusOr<AttributeId> attr = table.schema().FindAttribute("range");
  ASSERT_TRUE(attr.ok());
  StatusOr<QueryHierarchy> hierarchy =
      QueryHierarchy::FromCatalog(table.catalog(), *attr);
  ASSERT_FALSE(hierarchy.ok());
  EXPECT_EQ(hierarchy.status().code(), StatusCode::kInvalidArgument);
}

TEST(OptimalSelectorTest, FromCatalogRejectsDuplicateInterval) {
  // Distinct catalog texts denoting the same interval ("r1-2" vs
  // "r01-2") would make the descent ambiguous.
  Table table = MakeTable({
      {{"range", "r1-2"}, {"name", "n0"}},
      {{"range", "r01-2"}, {"name", "n1"}},
  });
  StatusOr<AttributeId> attr = table.schema().FindAttribute("range");
  ASSERT_TRUE(attr.ok());
  StatusOr<QueryHierarchy> hierarchy =
      QueryHierarchy::FromCatalog(table.catalog(), *attr);
  ASSERT_FALSE(hierarchy.ok());
  EXPECT_EQ(hierarchy.status().code(), StatusCode::kInvalidArgument);
}

// Completes an issued hierarchy value with a count.
QueryOutcome CountedOutcome(ValueId value, uint32_t total,
                            uint32_t returned) {
  QueryOutcome outcome;
  outcome.value = value;
  outcome.total_matches = total;
  outcome.records_returned = returned;
  outcome.new_records = returned;
  return outcome;
}

TEST(OptimalSelectorTest, RankDescendsRightBeforeLeft) {
  Table table = DyadicTable();
  LocalStore store;
  OptimalSelectorOptions options;
  options.result_limit = 1;
  RankOptimalSelector selector(store, HierarchyOf(table), options);
  EXPECT_EQ(selector.name(), "opt-rank");

  ValueId root = GetValueId(table, "range", "r0-3");
  selector.OnValueDiscovered(root);
  ASSERT_EQ(selector.SelectNext(), root);
  selector.OnQueryCompleted(CountedOutcome(root, /*total=*/4,
                                           /*returned=*/1));

  // Root overflowed (4 > 1): children surface right child FIRST.
  ASSERT_EQ(selector.SelectNext(), GetValueId(table, "range", "r2-3"));
  selector.OnQueryCompleted(CountedOutcome(
      GetValueId(table, "range", "r2-3"), /*total=*/2, /*returned=*/1));
  // r0-1 pops next (queued before r2-3's children); its implied count is
  // 4 - 2 = 2, not held locally (empty store), so it is queried.
  ASSERT_EQ(selector.SelectNext(), GetValueId(table, "range", "r0-1"));
  selector.OnQueryCompleted(CountedOutcome(
      GetValueId(table, "range", "r0-1"), /*total=*/2, /*returned=*/1));
  // Then r2-3's children right-first, then r0-1's.
  EXPECT_EQ(selector.SelectNext(), GetValueId(table, "range", "r3-3"));
  EXPECT_EQ(selector.descent_queries(), 4u);
  EXPECT_EQ(selector.overflowed_nodes(), 3u);
}

TEST(OptimalSelectorTest, CountArithmeticSkipsProvenEmptySibling) {
  Table table = DyadicTable();
  LocalStore store;
  OptimalSelectorOptions options;
  options.result_limit = 1;
  RankOptimalSelector selector(store, HierarchyOf(table), options);

  ValueId root = GetValueId(table, "range", "r0-3");
  selector.OnValueDiscovered(root);
  ASSERT_EQ(selector.SelectNext(), root);
  // Root claims 2 total; the right subtree accounts for both, so the
  // left subtree's implied count is zero and it is never queried.
  selector.OnQueryCompleted(CountedOutcome(root, /*total=*/2,
                                           /*returned=*/1));
  ValueId right = GetValueId(table, "range", "r2-3");
  ASSERT_EQ(selector.SelectNext(), right);
  selector.OnQueryCompleted(CountedOutcome(right, /*total=*/2,
                                           /*returned=*/1));
  // Next pop is r0-1: implied 2 - 2 = 0 -> skipped; descent continues
  // into r2-3's children.
  EXPECT_EQ(selector.SelectNext(), GetValueId(table, "range", "r3-3"));
  EXPECT_EQ(selector.skipped_by_count(), 1u);
}

TEST(OptimalSelectorTest, EmptyResultResolvesWithoutChildren) {
  Table table = DyadicTable();
  LocalStore store;
  OptimalSelectorOptions options;
  options.result_limit = 1;
  RankOptimalSelector selector(store, HierarchyOf(table), options);

  ValueId root = GetValueId(table, "range", "r0-3");
  selector.OnValueDiscovered(root);
  ASSERT_EQ(selector.SelectNext(), root);
  selector.OnQueryCompleted(CountedOutcome(root, /*total=*/0,
                                           /*returned=*/0));
  // No overflow, no children, frontier empty.
  EXPECT_EQ(selector.SelectNext(), kInvalidValueId);
  EXPECT_EQ(selector.overflowed_nodes(), 0u);
  EXPECT_EQ(selector.resolved_nodes(), 1u);
}

TEST(OptimalSelectorTest, DegradedDrainTreatedAsOverflow) {
  Table table = DyadicTable();
  LocalStore store;
  OptimalSelectorOptions options;
  options.result_limit = 1;
  RankOptimalSelector selector(store, HierarchyOf(table), options);

  ValueId root = GetValueId(table, "range", "r0-3");
  selector.OnValueDiscovered(root);
  ASSERT_EQ(selector.SelectNext(), root);
  QueryOutcome outcome;
  outcome.value = root;
  outcome.total_matches = 1;  // would NOT overflow on its own
  outcome.records_returned = 0;
  outcome.degraded = true;  // pages lost: children must re-cover
  selector.OnQueryCompleted(outcome);
  EXPECT_EQ(selector.SelectNext(), GetValueId(table, "range", "r2-3"));
  EXPECT_EQ(selector.overflowed_nodes(), 1u);
}

TEST(OptimalSelectorTest, ThresholdModeUsesReturnedCountOnly) {
  Table table = DyadicTable();
  LocalStore store;
  OptimalSelectorOptions options;
  options.mode = OptimalMode::kThreshold;
  options.result_limit = 2;
  RankOptimalSelector selector(store, HierarchyOf(table), options);
  EXPECT_EQ(selector.name(), "opt-threshold");

  ValueId root = GetValueId(table, "range", "r0-3");
  selector.OnValueDiscovered(root);
  ASSERT_EQ(selector.SelectNext(), root);
  // A full window (returned == limit) is treated as overflowing even
  // with a total count that says otherwise — threshold mode never
  // trusts counts.
  QueryOutcome full;
  full.value = root;
  full.total_matches = 2;
  full.records_returned = 2;
  selector.OnQueryCompleted(full);
  ValueId right = GetValueId(table, "range", "r2-3");
  ASSERT_EQ(selector.SelectNext(), right);

  // A partial window resolves the node: no children enqueued.
  QueryOutcome partial;
  partial.value = right;
  partial.records_returned = 1;
  selector.OnQueryCompleted(partial);
  // Left sibling pops next; threshold mode never count-skips.
  EXPECT_EQ(selector.SelectNext(), GetValueId(table, "range", "r0-1"));
  EXPECT_EQ(selector.skipped_by_count(), 0u);
}

TEST(OptimalSelectorTest, NonHierarchyValuesFallBackToGreedy) {
  Table table = DyadicTable();
  LocalStore store;
  RankOptimalSelector selector(store, HierarchyOf(table),
                               OptimalSelectorOptions{});
  ValueId name = GetValueId(table, "name", "n0");
  selector.OnValueDiscovered(name);
  EXPECT_EQ(selector.SelectNext(), name);
  EXPECT_EQ(selector.fallback_selects(), 1u);
  EXPECT_TRUE(selector.MaySelectUndiscovered());
}

TEST(OptimalSelectorTest, DeterministicAcrossIdenticalRuns) {
  Table table = DyadicTable();
  QueryHierarchy reference = HierarchyOf(table);
  auto run = [&table, &reference] {
    LocalStore store;
    OptimalSelectorOptions options;
    options.result_limit = 1;
    RankOptimalSelector selector(store, HierarchyOf(table), options);
    std::vector<ValueId> picks;
    selector.OnValueDiscovered(GetValueId(table, "range", "r0-3"));
    for (int step = 0; step < 16; ++step) {
      ValueId v = selector.SelectNext();
      if (v == kInvalidValueId) break;
      picks.push_back(v);
      // Each node reports one record per bucket: internal nodes overflow
      // (width > limit 1), leaves resolve, and no implied count ever
      // hits zero — every node of the tree gets queried.
      const QueryHierarchy::Node& n =
          reference.node(reference.NodeOf(v));
      selector.OnQueryCompleted(
          CountedOutcome(v, /*total=*/n.hi - n.lo + 1, /*returned=*/1));
    }
    return picks;
  };
  std::vector<ValueId> first = run();
  EXPECT_EQ(first.size(), 7u);  // the full tree
  EXPECT_EQ(first, run());
}

// --- checkpoint resume mid-descent ---------------------------------
//
// A checkpoint holds the crawl's fetch log; restoring it replays the
// descent through the selector's event callbacks, so these tests crawl
// the dyadic table behind a result limit of one record per query.

ServerOptions LimitOne() {
  ServerOptions options;
  options.result_limit = 1;
  return options;
}

struct DescentCrawl {
  DescentCrawl(const Table& table, QueryHierarchy hierarchy,
               OptimalSelectorOptions options)
      : server(table, LimitOne()),
        selector(store, std::move(hierarchy), options),
        engine(server, selector, store, CrawlOptions{}) {}

  // Crawls from the hierarchy root for `rounds` rounds (0 = to the end).
  CrawlResult Crawl(const Table& table, uint64_t rounds) {
    engine.AddSeed(GetValueId(table, "range", "r0-3"));
    return Continue(rounds);
  }
  CrawlResult Continue(uint64_t rounds) {
    engine.set_max_rounds(rounds);
    StatusOr<CrawlResult> result = engine.Run();
    DEEPCRAWL_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
  std::string Image() const {
    StatusOr<std::string> image = EncodeCrawlCheckpoint(engine, nullptr);
    DEEPCRAWL_CHECK(image.ok()) << image.status().ToString();
    return std::move(image).value();
  }

  WebDbServer server;
  LocalStore store;
  RankOptimalSelector selector;
  CrawlEngine engine;
};

OptimalSelectorOptions RankLimitOne() {
  OptimalSelectorOptions options;
  options.result_limit = 1;
  return options;
}

TEST(OptimalSelectorTest, CheckpointRoundTripsMidDescent) {
  Table table = DyadicTable();
  DescentCrawl reference(table, HierarchyOf(table), RankLimitOne());
  CrawlResult full = reference.Crawl(table, 0);

  // Two rounds in: root resolved, right half issued and resolved, left
  // half and the right leaves queued.
  DescentCrawl first(table, HierarchyOf(table), RankLimitOne());
  first.Crawl(table, 2);
  ASSERT_EQ(first.selector.descent_queries(), 2u);
  DescentCrawl restored(table, HierarchyOf(table), RankLimitOne());
  Status loaded =
      DecodeCrawlCheckpoint(first.Image(), restored.engine, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(restored.selector.descent_queries(),
            first.selector.descent_queries());
  EXPECT_EQ(restored.selector.resolved_nodes(),
            first.selector.resolved_nodes());
  EXPECT_EQ(restored.selector.overflowed_nodes(),
            first.selector.overflowed_nodes());

  // Both continue with the identical pick sequence to exhaustion.
  CrawlResult cont = restored.Continue(0);
  EXPECT_EQ(cont.rounds, full.rounds);
  EXPECT_EQ(cont.trace.points(), full.trace.points());
  EXPECT_EQ(restored.selector.descent_queries(),
            reference.selector.descent_queries());
  EXPECT_EQ(restored.selector.skipped_by_count(),
            reference.selector.skipped_by_count());
}

TEST(OptimalSelectorTest, CheckpointRejectsOptionsMismatch) {
  Table table = DyadicTable();
  DescentCrawl first(table, HierarchyOf(table), RankLimitOne());
  first.Crawl(table, 0);
  const std::string image = first.Image();

  // Different mode: the policy names differ.
  {
    OptimalSelectorOptions options = RankLimitOne();
    options.mode = OptimalMode::kThreshold;
    DescentCrawl restored(table, HierarchyOf(table), options);
    Status loaded = DecodeCrawlCheckpoint(image, restored.engine, nullptr);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  }
  // Different result limit, or another table's forest: the descent
  // picks other values, so the replay diverges.
  {
    OptimalSelectorOptions options;
    options.result_limit = 2;
    DescentCrawl restored(table, HierarchyOf(table), options);
    Status loaded = DecodeCrawlCheckpoint(image, restored.engine, nullptr);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.message().find("replay diverged"), std::string::npos)
        << loaded.ToString();
  }
  {
    Table other = MakeTable({
        {{"range", "r0-1"}, {"name", "n0"}},
        {{"range", "r0-0"}, {"name", "n1"}},
    });
    DescentCrawl restored(table, HierarchyOf(other), RankLimitOne());
    Status loaded = DecodeCrawlCheckpoint(image, restored.engine, nullptr);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.message().find("replay diverged"), std::string::npos)
        << loaded.ToString();
  }
}

TEST(OptimalSelectorTest, CheckpointRejectsCorruptLogMidDescent) {
  Table table = DyadicTable();
  DescentCrawl first(table, HierarchyOf(table), RankLimitOne());
  first.Crawl(table, 1);  // root resolved, both halves queued
  const std::string image = first.Image();
  StatusOr<std::string_view> payload =
      UnframeCheckpoint(image, kCrawlCheckpointVersion);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();

  // Reframed truncations and bit flips must produce clean errors, never
  // crashes; a flip that still decodes must leave a usable crawl.
  for (size_t cut : {payload->size() - 1, payload->size() / 2, size_t{1}}) {
    DescentCrawl restored(table, HierarchyOf(table), RankLimitOne());
    EXPECT_FALSE(DecodeCrawlCheckpoint(
                     FrameCheckpoint(payload->substr(0, cut),
                                     kCrawlCheckpointVersion),
                     restored.engine, nullptr)
                     .ok())
        << "cut=" << cut;
  }
  for (size_t flip = 0; flip < payload->size(); ++flip) {
    std::string mutated(*payload);
    mutated[flip] = static_cast<char>(mutated[flip] ^ 0x2a);
    DescentCrawl restored(table, HierarchyOf(table), RankLimitOne());
    Status loaded = DecodeCrawlCheckpoint(
        FrameCheckpoint(mutated, kCrawlCheckpointVersion), restored.engine,
        nullptr);
    if (loaded.ok()) restored.Continue(0);
  }
}

}  // namespace
}  // namespace deepcrawl
