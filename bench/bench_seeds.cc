// §1/§4 ablation — convergence coverage: what the seeds predetermine.
//
// "The ultimate database coverage (or the coverage convergence) is
// predetermined by the seed values and the target query interfaces,
// [while] the communication costs ... are greatly dependent on the query
// selection method" (§1). This harness separates the two factors:
// for each of several seed values it reports (a) the reachability fixed
// point — the best ANY policy can do — under different result limits,
// and (b) what a greedy-link crawl actually attains.

#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/datagen/movie_domain.h"
#include "src/graph/reachability.h"
#include "src/util/table_printer.h"

int main() {
  using namespace deepcrawl;
  bench::PrintBanner(
      "Ablation (§1/§4): seed choice, result limits, and convergence "
      "coverage",
      "coverage convergence is predetermined by seeds and interface; "
      "costs depend on the selection method",
      "movie-domain target; reachability fixed point vs unbounded "
      "greedy-link crawl, per seed and result limit");

  MovieDomainPairConfig config;
  config.universe_size = 10000;
  config.target_size = 3000;
  config.seed = 5;
  StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
  DEEPCRAWL_CHECK(pair.ok()) << pair.status().ToString();
  const Table& target = pair->target;
  InvertedIndex index(target);
  std::cout << "target records: "
            << TablePrinter::FormatCount(target.num_records()) << "\n\n";

  TablePrinter table({"seed value", "reach (no limit)", "reach (limit 50)",
                      "reach (limit 10)", "greedy-link attains",
                      "rounds spent"});
  for (uint32_t i = 0; i < 5; ++i) {
    ValueId seed = bench::SeedValue(target, i * 7 + 1);
    std::vector<ValueId> seeds = {seed};
    ReachabilityReport unlimited =
        ComputeReachability(target, index, seeds);
    ReachabilityReport limit50 =
        ComputeReachabilityWithLimit(target, index, seeds, 50);
    ReachabilityReport limit10 =
        ComputeReachabilityWithLimit(target, index, seeds, 10);

    WebDbServer server(target, ServerOptions{});
    LocalStore store;
    GreedyLinkSelector selector(store);
    CrawlResult result =
        bench::RunCrawl(server, selector, store, CrawlOptions{}, seed);
    // An exhaustive crawl must land exactly on the fixed point.
    DEEPCRAWL_CHECK_EQ(result.records, unlimited.reachable_records);

    table.AddRow(
        {std::string(target.catalog().text_of(seed)),
         TablePrinter::FormatPercent(unlimited.record_fraction, 1),
         TablePrinter::FormatPercent(limit50.record_fraction, 1),
         TablePrinter::FormatPercent(limit10.record_fraction, 1),
         TablePrinter::FormatPercent(
             static_cast<double>(result.records) /
                 static_cast<double>(target.num_records()), 1),
         TablePrinter::FormatCount(result.rounds)});
  }
  table.Print(std::cout);
  std::cout << "\nreading: the 'reach' columns bound every policy; "
               "tighter result limits shrink the bound itself (§5.4's "
               "connectivity argument made exact). The crawl column "
               "confirms an unbounded crawl attains the fixed point — "
               "policies only change the rounds column.\n";
  return 0;
}
