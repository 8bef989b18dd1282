// Quickstart: crawl a small hidden-Web database with deepcrawl.
//
// The example builds an in-process "Web database" (a used-car catalog),
// puts it behind the simulated query interface, and crawls it with the
// greedy link-based selector, printing the crawl trace. This is the
// whole public API surface in ~100 lines:
//
//   Table + Schema      — the backend data
//   WebDbServer         — the query interface (pages, counts, costs)
//   LocalStore          — the crawler's local database DBlocal
//   GreedyLinkSelector  — a query selection policy
//   CrawlEngine         — the query-harvest-decompose loop

#include <iostream>
#include <vector>

#include "src/crawler/crawl_engine.h"
#include "src/crawler/greedy_link_selector.h"
#include "src/relation/table.h"
#include "src/server/web_db_server.h"
#include "src/util/table_printer.h"

using namespace deepcrawl;

int main() {
  // --- 1. a structured Web database: used cars -------------------------
  Schema schema;
  AttributeId brand = *schema.AddAttribute("Brand");
  AttributeId model = *schema.AddAttribute("Model");
  AttributeId city = *schema.AddAttribute("City");
  Table cars(std::move(schema));

  struct Car {
    const char* brand;
    const char* model;
    const char* city;
  };
  const Car inventory[] = {
      {"Toyota", "Corolla", "Seattle"}, {"Toyota", "Camry", "Seattle"},
      {"Toyota", "Corolla", "Portland"}, {"Honda", "Civic", "Seattle"},
      {"Honda", "Accord", "Boise"},      {"Ford", "Focus", "Portland"},
      {"Ford", "F150", "Boise"},         {"Toyota", "RAV4", "Boise"},
      {"Honda", "Civic", "Portland"},    {"Ford", "Focus", "Seattle"},
  };
  for (const Car& car : inventory) {
    StatusOr<RecordId> added = cars.AddRecord({
        Cell{brand, car.brand},
        Cell{model, car.model},
        Cell{city, car.city},
    });
    if (!added.ok()) {
      std::cerr << "failed to add record: " << added.status().ToString()
                << "\n";
      return 1;
    }
  }

  // --- 2. the query interface ------------------------------------------
  ServerOptions options;
  options.page_size = 3;           // three results per page
  options.reports_total_count = true;
  WebDbServer server(cars, options);

  // --- 3. crawl it -------------------------------------------------------
  LocalStore store;
  GreedyLinkSelector selector(store);
  CrawlEngine crawler(server, selector, store, CrawlOptions{});
  // The crawler starts from one seed attribute value it happens to know.
  crawler.AddSeed(cars.catalog().Find(brand, "Toyota"));

  StatusOr<CrawlResult> result = crawler.Run();
  if (!result.ok()) {
    std::cerr << "crawl failed: " << result.status().ToString() << "\n";
    return 1;
  }

  // --- 4. report ---------------------------------------------------------
  std::cout << "crawled " << result->records << " of " << cars.num_records()
            << " records in " << result->rounds
            << " communication rounds (" << result->queries
            << " queries), policy: " << selector.name() << "\n\n";

  TablePrinter trace({"rounds", "records harvested"});
  for (const TracePoint& point : result->trace.points()) {
    trace.AddRow({std::to_string(point.rounds),
                  std::to_string(point.records)});
  }
  trace.Print(std::cout);

  std::cout << "\nlocal statistics the selector crawled by:\n";
  TablePrinter stats({"value", "local matches", "local degree"});
  for (ValueId v = 0; v < cars.num_distinct_values(); ++v) {
    if (store.LocalFrequency(v) == 0) continue;
    stats.AddRow({std::string(cars.catalog().text_of(v)),
                  std::to_string(store.LocalFrequency(v)),
                  std::to_string(store.LocalDegree(v))});
  }
  stats.Print(std::cout);
  return 0;
}
