// Harvesting the marginal content (§3.3): the "low marginal benefit"
// phenomenon and the MMMI switch-over.
//
// Crawls a correlated auction database to deep coverage twice — once
// with plain greedy-link selection and once with the GL -> MMMI
// switch-over at 85% — and prints the cost of each coverage decile, so
// the §5.1 observation ("cost increases dramatically when the coverage
// exceeds 80%") and the Figure 4 saving are both visible.

#include <iostream>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/crawler/mmmi_selector.h"
#include "src/datagen/canned_workloads.h"
#include "src/datagen/workload_config.h"
#include "src/server/web_db_server.h"
#include "src/util/table_printer.h"

using namespace deepcrawl;

int main() {
  SyntheticDbConfig config = EbayConfig(/*scale=*/0.1, /*seed=*/23);
  StatusOr<Table> generated = GenerateTable(config);
  if (!generated.ok()) {
    std::cerr << generated.status().ToString() << "\n";
    return 1;
  }
  const Table& auctions = *generated;
  WebDbServer server(auctions, ServerOptions{});
  std::cout << "auction database: " << auctions.num_records()
            << " records, " << auctions.num_distinct_values()
            << " distinct attribute values\n\n";

  CrawlOptions options;
  options.target_records = static_cast<uint64_t>(
      0.99 * static_cast<double>(auctions.num_records()));
  options.saturation_records = static_cast<uint64_t>(
      0.85 * static_cast<double>(auctions.num_records()));

  auto run = [&](QuerySelector& selector, LocalStore& store) {
    server.ResetMeters();
    CrawlEngine crawler(server, selector, store, options);
    crawler.AddSeed(1);
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      std::exit(1);
    }
    return std::move(*result);
  };

  LocalStore store_gl;
  GreedyLinkSelector greedy(store_gl);
  CrawlResult result_gl = run(greedy, store_gl);

  LocalStore store_mmmi;
  MmmiSelector mmmi(store_mmmi);
  CrawlResult result_mmmi = run(mmmi, store_mmmi);

  TablePrinter table({"coverage", "GL rounds", "GL+MMMI rounds"});
  for (int decile = 1; decile <= 9; ++decile) {
    uint64_t target = static_cast<uint64_t>(
        0.11 * decile * static_cast<double>(auctions.num_records()));
    auto gl = result_gl.trace.RoundsToRecords(target);
    auto mm = result_mmmi.trace.RoundsToRecords(target);
    table.AddRow({TablePrinter::FormatPercent(0.11 * decile, 0),
                  gl ? std::to_string(*gl) : "-",
                  mm ? std::to_string(*mm) : "-"});
  }
  table.Print(std::cout);

  std::cout << "\ntotals to 99% coverage: GL " << result_gl.rounds
            << " rounds, GL+MMMI " << result_mmmi.rounds
            << " rounds.\nNote how each extra decile costs more than the "
               "previous one — the \"low marginal benefit\" phenomenon — "
               "and how the mutual-information re-ordering (switched on "
               "at 85%) trims the expensive tail.\n";
  return 0;
}
