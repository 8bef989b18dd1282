// Stopping a crawl at a target coverage WITHOUT knowing the database
// size (§1: the loop runs "until ... some stopping criterion is met").
//
// The crawler tracks how often each record has been returned across
// queries; the Chao1 abundance estimator turns those duplicate counts
// into a running estimate of |DB| — and therefore of the current
// coverage. This example crawls in budget slices, prints the evolving
// estimate next to the (normally unknown) truth, and stops once the
// ESTIMATED coverage passes 90%.

#include <iostream>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/datagen/canned_workloads.h"
#include "src/datagen/workload_config.h"
#include "src/estimate/chao.h"
#include "src/server/web_db_server.h"
#include "src/util/table_printer.h"

using namespace deepcrawl;

int main() {
  StatusOr<Table> generated =
      GenerateTable(EbayConfig(/*scale=*/0.05, /*seed=*/9));
  if (!generated.ok()) {
    std::cerr << generated.status().ToString() << "\n";
    return 1;
  }
  const Table& db = *generated;
  WebDbServer server(db, ServerOptions{});

  constexpr double kTargetCoverage = 0.90;
  constexpr uint64_t kSliceRounds = 100;

  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlOptions options;
  options.max_rounds = kSliceRounds;
  CrawlEngine crawler(server, selector, store, options);
  crawler.AddSeed(3);

  TablePrinter table({"rounds", "records", "est. |DB|", "est. coverage",
                      "true coverage"});
  bool reached = false;
  for (int slice = 1; slice <= 100 && !reached; ++slice) {
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    ChaoEstimate estimate = Chao1Estimate(store);
    double true_coverage = static_cast<double>(result->records) /
                           static_cast<double>(db.num_records());
    table.AddRow({std::to_string(result->rounds),
                  std::to_string(result->records),
                  TablePrinter::FormatDouble(estimate.estimated_total, 0),
                  TablePrinter::FormatPercent(estimate.estimated_coverage,
                                              1),
                  TablePrinter::FormatPercent(true_coverage, 1)});
    if (estimate.estimated_coverage >= kTargetCoverage ||
        result->stop_reason == StopReason::kFrontierExhausted) {
      reached = true;
    } else {
      crawler.set_max_rounds(result->rounds + kSliceRounds);
    }
  }
  table.Print(std::cout);
  std::cout << "\nthe crawler stopped on its own coverage estimate; the "
               "database truly holds "
            << db.num_records()
            << " records, a number it never used.\n";
  return 0;
}
