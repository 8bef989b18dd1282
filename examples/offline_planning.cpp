// Offline query planning (Definition 2.4): if the crawler DID know the
// whole attribute-value graph, the optimal plan would be a Weighted
// Minimum Dominating Set. This example computes the greedy WMDS of a
// generated database, executes it as a scripted crawl, and compares its
// cost with the online greedy-link crawler that must discover the graph
// as it goes — measuring what the paper calls the crawler's "more
// challenging problem" of lacking the big picture.

#include <iostream>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/scripted_selector.h"
#include "src/datagen/canned_workloads.h"
#include "src/datagen/workload_config.h"
#include "src/graph/attribute_value_graph.h"
#include "src/graph/dominating_set.h"
#include "src/graph/set_cover.h"
#include "src/server/web_db_server.h"
#include "src/util/table_printer.h"

using namespace deepcrawl;

int main() {
  StatusOr<Table> generated =
      GenerateTable(EbayConfig(/*scale=*/0.05, /*seed=*/6));
  if (!generated.ok()) {
    std::cerr << generated.status().ToString() << "\n";
    return 1;
  }
  const Table& db = *generated;
  WebDbServer server(db, ServerOptions{});
  std::cout << "database: " << db.num_records() << " records, "
            << db.num_distinct_values() << " distinct values\n\n";

  // --- offline: plan with full knowledge --------------------------------
  auto cost = [&](ValueId v) {
    return static_cast<double>(server.FullRetrievalCost(v));
  };
  AttributeValueGraph graph = AttributeValueGraph::Build(db);
  DominatingSetResult wmds = GreedyWeightedDominatingSet(graph, cost);
  InvertedIndex index(db);
  SetCoverResult cover = GreedyWeightedSetCover(db, index, cost);
  std::cout << "offline WMDS plan (Def. 2.4): " << wmds.vertices.size()
            << " queries, predicted cost "
            << TablePrinter::FormatDouble(wmds.total_weight, 0)
            << " rounds\n"
            << "offline set-cover plan:       " << cover.values.size()
            << " queries, predicted cost "
            << TablePrinter::FormatDouble(cover.total_weight, 0)
            << " rounds\n";

  TablePrinter table({"crawler", "records", "coverage", "rounds",
                      "queries"});
  auto add_row = [&](const char* name, const CrawlResult& result) {
    table.AddRow({name, std::to_string(result.records),
                  TablePrinter::FormatPercent(
                      static_cast<double>(result.records) /
                          static_cast<double>(db.num_records()), 1),
                  std::to_string(result.rounds),
                  std::to_string(result.queries)});
  };

  // Execute both plans as scripted crawls. The set-cover plan retrieves
  // every record by construction; the WMDS plan discovers every VALUE
  // but can miss records whose own values were only dominated — the
  // subtlety Definition 2.4 glosses over (see src/graph/set_cover.h).
  for (bool use_cover : {true, false}) {
    LocalStore store;
    ScriptedSelector selector(use_cover ? cover.values : wmds.vertices);
    CrawlEngine crawler(server, selector, store, CrawlOptions{});
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    add_row(use_cover ? "offline set-cover plan" : "offline WMDS plan",
            *result);
  }

  // The online crawler discovers the graph while paying for it.
  {
    LocalStore store;
    GreedyLinkSelector selector(store);
    CrawlOptions options;
    CrawlEngine crawler(server, selector, store, options);
    ValueId seed = 0;
    while (db.value_frequency(seed) == 0) ++seed;
    crawler.AddSeed(seed);
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    add_row("online greedy-link", *result);
  }
  table.Print(std::cout);

  std::cout << "\nthe gap between the rows is the price of crawling with "
               "\"partial knowledge about the target database\" (§2.5) — "
               "the online crawler re-retrieves duplicated pages the "
               "planner avoids.\n";
  return 0;
}
