// Domain-knowledge crawling (§4): crawl an "Amazon DVD"-like store using
// a domain statistics table built from an "IMDB"-like sample database.
//
// Demonstrates:
//   * GenerateMovieDomainPair — a synthetic domain universe, crawl
//     target, and two year-cut domain samples;
//   * DomainTable::Build — mapping sample values into the target's
//     catalog by (attribute name, text);
//   * DomainSelector — the §4 estimators, candidate pools, and the
//     incremental P(Lqueried, DM) machinery;
//   * a head-to-head with the purely link-based crawler.

#include <iostream>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/datagen/movie_domain.h"
#include "src/domain/domain_selector.h"
#include "src/domain/domain_table.h"
#include "src/server/web_db_server.h"
#include "src/util/table_printer.h"

using namespace deepcrawl;

int main() {
  MovieDomainPairConfig config;
  config.universe_size = 8000;
  config.target_size = 2400;
  config.seed = 42;
  StatusOr<MovieDomainPair> pair = GenerateMovieDomainPair(config);
  if (!pair.ok()) {
    std::cerr << pair.status().ToString() << "\n";
    return 1;
  }
  Table& target = pair->target;
  std::cout << "crawl target: " << target.num_records()
            << " DVDs; domain sample (post-1960 movies): "
            << pair->dm1.num_records() << " records\n";

  // Build the domain statistics table against the target's catalog.
  DomainTable dt = DomainTable::Build(pair->dm1, target.schema(),
                                      target.mutable_catalog());
  std::cout << "domain table: " << dt.num_entries()
            << " candidate queries\n\n";

  ServerOptions server_options;
  server_options.page_size = 10;
  WebDbServer server(target, server_options);

  CrawlOptions crawl_options;
  crawl_options.max_rounds = target.num_records() / 4;  // tight budget

  auto coverage = [&](uint64_t records) {
    return TablePrinter::FormatPercent(
        static_cast<double>(records) /
        static_cast<double>(target.num_records()), 1);
  };

  // Domain-knowledge crawl: no seeds needed, the DT supplies queries.
  uint64_t dm_records = 0;
  {
    LocalStore store;
    DomainSelector selector(store, dt, server_options.page_size);
    CrawlEngine crawler(server, selector, store, crawl_options);
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    dm_records = result->records;
    std::cout << "domain-knowledge crawl: " << coverage(result->records)
              << " coverage in " << result->rounds << " rounds ("
              << selector.num_qdt_selected() << " queries from Q_DT, "
              << selector.num_qdb_selected() << " from Q_DB; "
              << "DM hit rate "
              << TablePrinter::FormatPercent(selector.QdtHitRate(), 1)
              << ", P(Lqueried, DM) "
              << TablePrinter::FormatPercent(
                     selector.QueriedDomainCoverage(), 1)
              << ")\n";
  }

  // Link-based crawl from one discovered value, same budget.
  {
    LocalStore store;
    GreedyLinkSelector selector(store);
    CrawlEngine crawler(server, selector, store, crawl_options);
    ValueId seed = 0;
    while (target.value_frequency(seed) == 0) ++seed;
    crawler.AddSeed(seed);
    StatusOr<CrawlResult> result = crawler.Run();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    std::cout << "greedy-link crawl:      " << coverage(result->records)
              << " coverage in " << result->rounds << " rounds\n";
    if (dm_records > result->records) {
      std::cout << "\nthe domain table is worth "
                << (dm_records - result->records)
                << " extra records within the same budget — §4's point.\n";
    }
  }
  return 0;
}
